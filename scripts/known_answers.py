#!/usr/bin/env python3
"""The known-answer sweep: `ncsos certify` on 144 inputs whose kind is known
by construction, and `ncsos spotcheck` on each decisive outcome.

The inputs come from the one generator of tests/test_known_answers.py,
known_answer_input, at seeds 0-2 and every point (mode, g, d, k) with g, d,
k in {1, 2} (Gram side at most 34): a sum of one or two seeded squares, and
r* r - eps for eps in {1e-2, 1e-4}, negative at a seeded 3 x 3 tuple.  The
tier-1 test runs seed 0 at Gram side at most 14.

Run from anywhere, with no flags:

    python3 scripts/known_answers.py

ncsos is imported from the src/ of the checkout the script sits in, with one
BLAS thread, and every input and outcome file is written to a temporary
directory.  It prints each undecided input and each failure, then the
undecided count by mode and truth.  A failure is a wrong kind (witness for a
sum of squares, sos for r* r - eps), an exit code that is no kind, or a
decisive outcome that spotcheck refuses; the exit code is 1 when there is one.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is first imported

import contextlib
import io
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ncsos import jsonio  # noqa: E402
from ncsos.cli import main as ncsos  # noqa: E402
from ncsos.poly import poly_to_json  # noqa: E402
from test_known_answers import EPSILONS, known_answer_input, points  # noqa: E402

SEEDS = range(3)
KINDS = {0: "sos", 1: "witness", 2: "undecided"}  # ncsos certify's exit codes


def decide(tmp: str, f, wrong: str) -> tuple[str, str]:
    """certify's kind for f, and why it fails ("" when it does not): the kind
    wrong, an exit code that is no kind, or spotcheck refusing the outcome.
    The commands' progress notes on stderr are kept back, and an error's
    message is part of the failure."""
    inp, out, spot = (os.path.join(tmp, name) for name in ("f.json", "outcome.json", "spotcheck.json"))
    pathlib.Path(inp).write_text(jsonio.dumps(poly_to_json(f)))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = ncsos(["certify", inp, "--out", out])
        kind = KINDS.get(code, f"exit {code}")
        if code not in KINDS:
            return kind, f"{kind} ({err.getvalue().strip()})"
        if kind == wrong:
            return kind, kind
        if kind != "undecided" and (code := ncsos(["spotcheck", inp, out, "--out", spot])) != 0:
            return kind, f"spotcheck exits {code} on its {kind} outcome"
    return kind, ""


def main() -> int:
    undecided, failed, t0 = {}, 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for mode, g, d, k in points(34):
                for eps in EPSILONS:
                    name = f"seed{seed}-{mode}-g{g}-d{d}-k{k}-" + ("sos" if eps is None else f"eps{eps:g}")
                    truth = "sos" if eps is None else "not SOS"
                    f = known_answer_input(seed, mode, g, d, k, eps)[0]
                    kind, failure = decide(tmp, f, "witness" if eps is None else "sos")
                    undecided[mode, truth] = undecided.get((mode, truth), 0) + (kind == "undecided")
                    failed += bool(failure)
                    if failure:
                        print(f"FAILED     {name}: {failure}")
                    elif kind == "undecided":
                        print(f"undecided  {name}")
    inputs = len(SEEDS) * len(points(34)) * len(EPSILONS)
    print(f"{inputs} inputs in {time.perf_counter() - t0:.1f} s, {failed} failed; undecided by mode and truth:")
    for (mode, truth), count in undecided.items():
        print(f"  {mode:6s}  {truth:7s}  {count}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

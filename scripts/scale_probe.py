#!/usr/bin/env python3
"""Time `ncsos certify` on seeded inputs above the benchmark's sizes.

The Gram side m = k * count_words(g, d) of each point is above 30, the
benchmark's largest, except at the monoid point (m = 30, dual side 62).
Ground truth by construction:

    sos      f = gram_to_poly(B B*/m + I), B a seeded complex m x m matrix;
    witness  the same polynomial minus c, with c chosen so that f(Y0) has
             minimum eigenvalue -0.5 at a seeded 3 x 3 tuple Y0 (unitary in
             group mode, Hermitian in monoid mode), evaluated word by word
             with word_eval.

Run from anywhere:

    python3 scripts/scale_probe.py

Inputs and outcome files are written under .scale_probe/ at the root of the
checkout the script sits in, and ncsos is imported from that checkout's src/,
so a copy of this script in another checkout measures that checkout.  Each
decision runs in a fresh interpreter with one BLAS thread; the table gives its
wall time (ncsos.cli.main, input reading and outcome writing included) and its
ru_maxrss.  The exit code is 1 when a decided kind contradicts the
construction.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / ".scale_probe"
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# name: (mode, g, d, k, expected kind, seed)
POINTS = {
    "group-g2-d4-k1-sos": ("group", 2, 4, 1, "sos", 1),
    "group-g2-d4-k1-witness": ("group", 2, 4, 1, "witness", 2),
    "group-g2-d3-k2-witness": ("group", 2, 3, 2, "witness", 3),
    "monoid-g2-d3-k2-sos": ("monoid", 2, 3, 2, "sos", 4),
}


def make_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from ncsos import jsonio
    from ncsos.gram import GramMatrix, constraint_index, gram_to_poly
    from ncsos.poly import NCPoly, OperatorTuple, poly_to_json, word_eval
    from ncsos.words import GROUP, count_words, graded_key

    OUT.mkdir(exist_ok=True)
    for name, (mode, g, d, k, kind, seed) in POINTS.items():
        rng = np.random.default_rng(seed)
        m = k * count_words(g, d, mode)
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        index = constraint_index(g, d, mode)
        f = gram_to_poly(GramMatrix(g, mode, d, k, index, B @ B.conj().T / m + np.eye(m)))
        if kind == "witness":
            Z = rng.standard_normal((g, 3, 3)) + 1j * rng.standard_normal((g, 3, 3))
            Y = [np.linalg.qr(z)[0] if mode == GROUP else (z + z.conj().T) / 2 for z in Z]
            Y0 = OperatorTuple(mode, Y)
            fY = sum(np.kron(f.terms[w], word_eval(w, Y0)) for w in sorted(f.terms, key=graded_key))
            c = np.linalg.eigvalsh((fY + fY.conj().T) / 2).min() + 0.5
            f = f - NCPoly.constant(c * np.eye(k), g, mode)
        (OUT / f"{name}.json").write_text(jsonio.dumps(poly_to_json(f)))


def decide(name):
    import resource
    import time
    sys.path.insert(0, str(ROOT / "src"))
    from ncsos.cli import main
    from ncsos.words import count_words

    mode, g, d, k = POINTS[name][:4]
    out = OUT / f"{name}.outcome.json"
    t0 = time.perf_counter()
    main(["certify", str(OUT / f"{name}.json"), "--out", str(out)])
    wall = time.perf_counter() - t0
    kind = json.loads(out.read_text())["outcome"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"m": k * count_words(g, d, mode), "kind": kind, "wall_s": wall, "ru_maxrss_mb": rss}))


def run(*args) -> str:
    env = dict(os.environ, **SINGLE_THREAD)
    return subprocess.run([sys.executable, __file__, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def main():
    run("--make")
    print(f"{'point':24s} {'m':>4s} {'kind':>9s} {'expected':>9s} {'wall_s':>8s} {'ru_maxrss_mb':>13s}")
    wrong = 0
    for name, (*_, expected, _) in POINTS.items():
        got = json.loads(run("--decide", name))
        wrong += got["kind"] not in (expected, "undecided")
        print(f"{name:24s} {got['m']:4d} {got['kind']:>9s} {expected:>9s} "
              f"{got['wall_s']:8.2f} {got['ru_maxrss_mb']:13.1f}")
    return 1 if wrong else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--make"]:
        make_inputs()
    elif sys.argv[1:2] == ["--decide"]:
        decide(sys.argv[2])
    else:
        sys.exit(main())

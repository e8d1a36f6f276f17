#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

They check that the generator is deterministic, that the evidence checker
rejects tampered evidence, that tracing changes no outcome byte, and that
the benchmark refuses to run without the program.  A few seconds.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def _fresh(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _decide(command: str, case_path: str, out_path: str) -> int:
    from ncsos.cli import main
    return main([command, case_path, "--out", out_path])


def _case(workload: str, name: str, directory: str) -> str:
    for case, path in workloads.write_inputs(workload, 3, directory):
        if case.name == name:
            return path
    raise KeyError(name)


def test_generator_is_deterministic():
    for name in workloads.WORKLOADS:
        a = workloads.write_inputs(name, 3, _fresh(f"gen-{name}-a"))
        b = workloads.write_inputs(name, 3, _fresh(f"gen-{name}-b"))
        assert [c for c, _ in a] == [c for c, _ in b]
        for (_, pa), (_, pb) in zip(a, b):
            assert filecmp.cmp(pa, pb, shallow=False), f"{name}: {pa} differs between runs"
    a = workloads.write_inputs("sos-ladder", 3, _fresh("gen-seed-a"))
    b = workloads.write_inputs("sos-ladder", 4, _fresh("gen-seed-b"))
    assert all(not filecmp.cmp(pa, pb, shallow=False) for (_, pa), (_, pb) in zip(a, b))


def test_checker_rejects_perturbed_factor():
    d = _fresh("sos")
    path = _case("sos-ladder", "monoid-g2-d1-k2", d)
    out = os.path.join(d, "out.json")
    assert _decide("certify", path, out) == 0
    assert check.check(path, out) == ("sos", None)
    with open(out) as fh:
        data = json.load(fh)
    data["certificate"]["factors"][0]["terms"][0]["matrix"][0][0][0] += 1e-4
    with open(out, "w") as fh:
        json.dump(data, fh)
    kind, reason = check.check(path, out)
    assert kind == "sos" and reason is not None and "misses the input" in reason


def test_checker_rejects_operators_where_f_is_psd():
    d = _fresh("witness")
    path = _case("fixtures", "anticommutator", d)  # x1 x2 + x2 x1, 2I at Y = (I, I)
    out = os.path.join(d, "out.json")
    assert _decide("witness", path, out) == 1
    assert check.check(path, out) == ("witness", None)
    with open(out) as fh:
        data = json.load(fh)
    ops = data["witness"]["model"]["operators"]
    n = len(ops["entries"][0])
    eye = [[[1.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
    ops["entries"] = [eye for _ in ops["entries"]]
    with open(out, "w") as fh:
        json.dump(data, fh)
    kind, reason = check.check(path, out)
    assert kind == "witness" and reason is not None and "not negative" in reason


def test_tracing_changes_no_outcome_byte():
    d = _fresh("trace")
    picks = {"sos-ladder": ("monoid-g2-d2-k1", "group-g2-d1-k2"),
             "witness-dual": ("monoid-g2-d1-k1", "group-g1-d2-k1"),
             "fixtures": ("one_plus_square",)}
    manifest = []
    for workload, names in picks.items():
        for case, path in workloads.write_inputs(workload, 3, os.path.join(d, workload)):
            if case.name in names:
                manifest.append({"name": f"{workload}-{case.name}", "command": case.command,
                                 "input": path})
    with open(os.path.join(d, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    deadline = time.monotonic() + 120
    run.run_worker(ROOT, d, "untraced", 0, 1.0, deadline)
    traced = run.run_worker(ROOT, d, "traced", 1, 1.0, deadline)
    assert traced["layers"]["sdp.iterations"] > 0
    for item in manifest:
        a = os.path.join(d, "untraced", "pass0", item["name"] + ".json")
        b = os.path.join(d, "traced", "pass0", item["name"] + ".json")
        assert filecmp.cmp(a, b, shallow=False), f"{item['name']}: traced output differs"


def test_refuses_to_run_without_the_program():
    d = _fresh("bare")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "fixtures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=d, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.perf_counter()
            try:
                fn()
                print(f"PASS {name} ({time.perf_counter() - t0:.1f} s)")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

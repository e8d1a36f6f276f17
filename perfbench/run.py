#!/usr/bin/env python3
"""Decision benchmark for ncsos: time to decide seeded workloads, end to end
and per layer.

Run from the root of an ncsos checkout:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): fixtures, sos-ladder, witness-dual.

--trace 0 measures the end-to-end metrics.  A worker process decides every
input through ncsos.cli.main, pass after pass, for about --seconds (at least
one pass); wall_s is the fastest pass, because contention from other load
only ever slows a pass down.  Set-up time is the median of SETUP_REPEATS
fresh interpreters importing ncsos.cli.
--trace 1 makes one pass with timing wrappers installed (tracer.py) and
reports the per-layer metrics.  Its overhead is its wall time minus the
wall_s of the --trace 0 run of the same seed and code, when that run's
record is on disk; the outcome files of the two runs must then be identical.

Every outcome is checked with check.py.  A decisive answer that contradicts
the construction (sos for a non-SOS input, witness for an SOS input), or a
pass whose outcome files differ from the first pass's, makes the run incorrect and the exit code 1.
The last line of stdout is the JSON result; run artifacts (inputs, outcome
files, spans.jsonl, record.json) are kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 6  # half before the worker, half after
DEADLINE_S = 170.0  # a run must end within 180 s


def metric_spec(root: str, kind: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for "end_to_end" or "per_layer"."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one single-threaded worker; never more threads than cores
    return env


def measure_setup(root: str, deadline: float, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running `import ncsos.cli`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ncsos.cli"], env=child_env(root),
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
    return times


def run_worker(root, run_dir, label, trace, seconds, deadline):
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--manifest", os.path.join(run_dir, "manifest.json"),
           "--out-dir", os.path.join(run_dir, label), "--seconds", str(seconds),
           "--trace", str(trace), "--result", os.path.join(run_dir, label + ".json")]
    with open(os.path.join(run_dir, label + ".log"), "w") as log:
        proc = subprocess.Popen(cmd, env=child_env(root), stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        raise RuntimeError(f"{label} worker exited with {rc}; see {run_dir}/{label}.log")
    with open(os.path.join(run_dir, label + ".json")) as fh:
        return json.load(fh)


def judge(cases, out_dir, result):
    """Check pass 0's evidence and compare later passes byte for byte.

    Returns (decided per pass, wrong answers, problems)."""
    decided, wrong, problems = 0, [], []
    calls = result["passes"][0]["calls"]
    for (case, path), call in zip(cases, calls):
        out_path = os.path.join(out_dir, "pass0", case.name + ".json")
        kind, reason = check.check(path, out_path)
        expected_rc = {"sos": 0, "witness": 1}.get(kind, 2)
        if kind in (workloads.SOS, workloads.WITNESS) and kind != case.truth:
            wrong.append(f"{case.name}: answered {kind}, construction says {case.truth}")
        elif kind == case.truth and reason is None and call["rc"] == expected_rc:
            decided += 1
        else:
            problems.append(f"{case.name}: {kind} (exit code {call['rc']})"
                            + (f", evidence rejected: {reason}" if reason else ""))
    for p in range(1, len(result["passes"])):
        for case, _ in cases:
            a = os.path.join(out_dir, "pass0", case.name + ".json")
            b = os.path.join(out_dir, f"pass{p}", case.name + ".json")
            if not filecmp.cmp(a, b, shallow=False):
                wrong.append(f"{case.name}: pass {p} output differs from pass 0")
    return decided, wrong, problems


def _load_record(run_dir):
    try:
        with open(os.path.join(run_dir, "record.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_record(root, args, worker_result) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ncsos")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": worker_result.get("blas"), "blas_threads": worker_result.get("blas_threads"),
            "machine": platform.machine()}


def run_workload(root, workload, args) -> tuple[dict, bool]:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(root, ".perfbench", f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cases = workloads.write_inputs(workload, args.seed, os.path.join(run_dir, "inputs"))
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump([{"name": c.name, "command": c.command, "input": p} for c, p in cases], fh)

    label = "traced" if args.trace else "untraced"
    setup = [] if args.trace else measure_setup(root, deadline, SETUP_REPEATS // 2)
    main = run_worker(root, run_dir, label, args.trace, args.seconds, deadline)
    if not args.trace:
        setup += measure_setup(root, deadline, SETUP_REPEATS - len(setup))
    decided, wrong, problems = judge(cases, os.path.join(run_dir, label), main)
    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    if not os.path.realpath(main["ncsos_file"]).startswith(src):
        raise RuntimeError(f"worker imported ncsos from {main['ncsos_file']}, not from src/")
    n_pass = len(main["passes"])
    record = run_record(root, args, main)
    if (record["blas_threads"] or 1) > record["nproc"]:
        raise RuntimeError(f"BLAS runs {record['blas_threads']} threads on {record['nproc']} cores")
    # The timings are not end-to-end metrics: on the shared 2-vCPU x86_64 VM of
    # the baseline, each vCPU's speed swings by up to 1.6x for seconds to
    # minutes at a time, so over ten runs their spread
    # (interquartile range over median) reached 0.33 for wall_s and 0.45
    # for decide_s.p50, above the largest bound a regression gate may use.
    # They are printed and recorded here and reported by the traced run.
    timing = {"wall_s": min(p["wall_s"] for p in main["passes"]),  # the fastest pass
              "decide_s.p50": statistics.median(c["s"] for p in main["passes"]
                                                for c in p["calls"])}
    overhead = None

    if args.trace:
        values = dict(main["layers"], **timing)
        # the overhead is this run's wall time minus the untraced run's wall_s,
        # when an untraced run of the same code and seed is on disk
        ref_dir = run_dir[:-len("trace1")] + "trace0"
        ref = _load_record(ref_dir)
        if ref and ref["record"]["src_sha256"] == record["src_sha256"]:
            overhead = timing["wall_s"] - ref["wall_s"]
            for case, _ in cases:
                if not filecmp.cmp(os.path.join(ref_dir, "untraced", "pass0", case.name + ".json"),
                                   os.path.join(run_dir, label, "pass0", case.name + ".json"),
                                   shallow=False):
                    wrong.append(f"{case.name}: traced output differs from the untraced run's")
    else:
        values = {"decided_frac": decided / len(cases), "setup_s": statistics.median(setup),
                  "peak_rss_mb": main["peak_rss_mb"]}
    spec = metric_spec(root, "per_layer" if args.trace else "end_to_end")
    if set(values) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(spec))} disagree with BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in spec.items()}

    attempted = len(cases) * n_pass
    out = {"correct": not wrong, "attempted": attempted,
           "failed": attempted - decided * n_pass, "metrics": metrics}
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"record": record, "result": out, "passes": n_pass, **timing,
                   "setup_times_s": setup, "trace_overhead_s": overhead,
                   "wrong": wrong, "misses": problems, "calls": main["passes"]}, fh, indent=1)

    for line in wrong:
        print(f"WRONG {workload}: {line}", file=sys.stderr)
    for line in problems:
        print(f"miss {workload}: {line}", file=sys.stderr)
    print(f"{workload} (seed {args.seed}, {n_pass} pass(es), {len(cases)} inputs, "
          f"decided {decided}/{len(cases)}):")
    if not args.trace:
        for k, v in timing.items():
            print(f"  {k:28s} {v:.6g} s (not gated)")
    for k, m in metrics.items():
        note = " (computed)" if k in ("sdp.stack_bytes", "sdp.normal_bytes") else ""
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        print("  trace overhead vs the untraced run: " + (
            f"{overhead:.6g} s" if overhead is not None
            else f"unknown; run --trace 0 --seed {args.seed} first"))
    print(f"  record: {os.path.relpath(os.path.join(run_dir, 'record.json'), root)}")
    return out, not wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so the workers are killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncsos", "cli.py")):
        print("perfbench: no src/ncsos here; run from the root of an ncsos checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results, ok = {}, True
    for name in names:
        try:
            results[name], good = run_workload(root, name, args)
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        ok = ok and good
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

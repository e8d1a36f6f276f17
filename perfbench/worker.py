"""Decide a workload's inputs in-process through ncsos.cli.main and time it.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  One pass
calls main([command, input, "--out", file]) once per input, in manifest
order.  Passes repeat while the next one is expected to end within
--seconds; there is always at least one.  With --trace 1 there is exactly
one pass, run under the Tracer, and its per-layer metrics and spans are
written too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def blas_info() -> dict:
    """BLAS library and the thread count it actually runs with."""
    import numpy as np
    info = {"blas_env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                info["blas_threads"] = getattr(handle, sym)()
                return info
    return info


def run_pass(main, manifest, out_dir, tracer, label):
    os.makedirs(out_dir)
    calls = []
    t0 = perf_counter()
    for item in manifest:
        argv = [item["command"], item["input"], "--out", os.path.join(out_dir, item["name"] + ".json")]
        c0 = perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                tracer.begin_request(f"{label}:{item['name']}")
                rc = tracer.call("cli.main", main, argv)
        except Exception:  # a crash is a failed decision; keep deciding the rest
            traceback.print_exc()
            rc = None
        calls.append({"name": item["name"], "rc": rc, "s": perf_counter() - c0})
    return {"wall_s": perf_counter() - t0, "calls": calls}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import ncsos.cli
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(args.manifest) as fh:
        manifest = json.load(fh)

    passes = []
    start = perf_counter()
    while True:
        p = len(passes)
        passes.append(run_pass(ncsos.cli.main, manifest, os.path.join(args.out_dir, f"pass{p}"),
                               tracer, p))
        if tracer is not None or perf_counter() - start + passes[-1]["wall_s"] > args.seconds:
            break

    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "ncsos_file": ncsos.cli.__file__, **blas_info()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(os.path.join(args.out_dir, "spans.jsonl"))
        result["layers"] = tracer.layer_metrics()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

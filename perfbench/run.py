#!/usr/bin/env python3
"""terntrain benchmark: pretrain, ternary train, eval, export and serve, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload mlp-quantize --seed 1 --seconds 40 --trace 0

Without --workload it runs every workload, each in its own process. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). The run's details go to perfbench/out/.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS thread: the host has two cores shared with other work, and
# thread-pool contention would dominate the spread between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="omit to run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args) -> int:
    import numpy  # noqa: F401  (timed as part of set-up)
    import terntrain.trainer  # noqa: F401
    import terntrain.modelio  # noqa: F401

    import_s = time.perf_counter() - _T0
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    run = pipeline.Run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    result = run.execute(import_s)
    result["environment"] = pipeline.environment()
    metrics = result["trace"]["metrics"] if args.trace else result["metrics"]
    result["attempted"] = run.ops.attempted
    result["failed"] = run.ops.failed
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)

    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={len(run.rounds)} "
          f"cpus={env['cpu_count']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} kernels={env['kernels_backend']}")
    loop = result["host_speed_loop_s"]
    print(f"# host-speed loop: median {1e3 * sorted(loop)[len(loop) // 2]:.2f} ms over {len(loop)} timings, "
          f"reference {1e3 * pipeline.HostSpeed.REF_S:.1f} ms; end-to-end times are scaled to the reference")
    unscaled = result.get("unscaled_metrics", {})
    for name, (value, unit) in metrics.items():
        raw = f"   (unscaled {unscaled[name][0]:.6g})" if name in unscaled and unscaled[name][0] != value else ""
        print(f"{name:40s} {value:14.6g} {unit}{raw}")
    if args.trace:
        for name, value in result["trace"]["breakdown"].items():
            print(f"{name:40s} {value:14.6g} ms (breakdown)")
    for err in run.ops.failures[:10]:
        print(f"FAILED {err}")
    print(f"# details: {os.path.relpath(path, ROOT)}")
    summary = {
        "correct": run.ops.failed == 0 and bool(metrics),
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined summary line at the end."""
    import pipeline

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in pipeline.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "terntrain")):
        print(f"terntrain sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

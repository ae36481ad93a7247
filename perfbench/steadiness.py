#!/usr/bin/env python3
"""Two sets of benchmark runs of one commit, compared metric by metric.

Run from the repository root:

    python3 perfbench/steadiness.py

Each of the two sets runs every workload in BENCHMARK.json once per seed,
seeds 1 to 10, for run_seconds each, each run in its own process through
BENCHMARK.json's command. The seed changes from run to run, so a spread
holds seed-to-seed variation as well as run-to-run noise; a run at one
fixed seed varies only by the second. For each workload and end-to-end
metric it prints each set's median and quartiles, the spread (interquartile
range over median), how far the second set's median moved from the first's
(positive: worse), and whether both spreads and the move, either way, stay
within the metric's bound. The raw results go to perfbench/out/steadiness.json;
--report judges a saved file again, for example after a bound changed,
without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per workload per set, one per seed
SETS = 2


def run_once(cmd: list, workload: str, seed: int, seconds: int) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(first: float, last: float, better: str) -> float:
    """Share of the first median by which the last one is worse (negative: better)."""
    return (first - last) / first if better == "higher" else (last - first) / first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--report", metavar="JSON", help="judge the results saved by an earlier invocation; run nothing")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.report:
        with open(args.report) as fh:
            saved = json.load(fh)
        seeds, seconds, results = saved["seeds"], saved["seconds"], saved["results"]
        workloads = list(results)
    else:
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        seeds = list(range(1, RUNS + 1))
        results = {w: [[] for _ in range(SETS)] for w in workloads}
        t0 = time.time()
        for s in range(SETS):
            for w in workloads:
                for seed in seeds:
                    res = run_once(bench["command"], w, seed, seconds)
                    results[w][s].append(res)
                    print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                          f"failed={res['failed']} ({time.time() - t0:.0f} s)", file=sys.stderr, flush=True)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
            json.dump({"seeds": seeds, "seconds": seconds, "results": results}, fh)

    ok = True
    print(f"seeds {seeds[0]}..{seeds[-1]}, {seconds} s per run, {len(results[workloads[0]])} set(s)")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        ok &= correct and same_share
        print(f"\n{w}: all correct={correct}; failed share per set {shares} "
              f"({'equal' if same_share else 'DIFFERENT'})")
        print(f"  {'metric':16s} " + " ".join(f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>40s}" for i in range(len(sets)))
              + f" {'worse':>7s} {'bound':>6s} verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            cells = " ".join(f"{med:>12.5g} [{q1:.5g}, {q3:.5g}] {sp:6.1%}" for med, q1, q3, sp in stats)
            moved = worse_by(stats[0][0], stats[-1][0], m["better"]) if len(sets) > 1 else 0.0
            spread_ok = name == "setup_s" or all(sp <= bound for *_, sp in stats)
            steady = name == "setup_s" or all(sp <= bound / 3 for *_, sp in stats)
            # A move for the better is as much a disagreement as one for the worse.
            good = spread_ok and abs(moved) <= bound
            ok &= good
            verdict = ("ok" if good else "FAIL") + ("" if steady else " (spread above a third of the bound)")
            print(f"  {name:16s} {cells} {moved:7.1%} {bound:6.0%} {verdict}")
    print("\nall within bounds" if ok else "\nSOME METRIC OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeatability check: run every workload on several seeds, in sets.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--sets 2]

For each workload and end-to-end metric it prints, per set, the median and
the interquartile spread as a share of the median (statistics.quantiles,
n=4), flags a spread above a third of the metric's bound (for setup_s,
above the whole bound: set-up is timed only a few times in a run, and
only its median is compared between commits), and flags a later set
whose median is worse than the first set's by more than the bound. Every set uses the same seeds, so each exact count must repeat
byte for byte between sets; any difference is listed. Exits non-zero on
a wrong answer, a flagged spread or median, or a count mismatch.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    exact = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "exact":
            exact[parts[1]] = int(parts[2])
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: failed run\n" + proc.stdout[-3000:])
    return {k: v["value"] for k, v in result["metrics"].items()}, exact


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    args = ap.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bad = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [one_run(workload, seed) for seed in seeds]
            sets.append(runs)
            print(f"{workload} set {s + 1}: done", flush=True)
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            first = None
            for s, runs in enumerate(sets):
                values = [r[0][name] for r in runs]
                med, sp = spread(values)
                first = med if first is None else first
                worse = (med - first) / first if m["better"] == "lower" \
                    else (first - med) / first
                flag = ""
                if sp > (bound if name == "setup_s" else bound / 3):
                    flag += " SPREAD"
                if worse > bound:
                    flag += " MEDIAN"
                bad += bool(flag)
                rows.append(f"set{s + 1} median={med:.6g} iqr/median={sp:.4f}"
                            f" vs-set1={worse:+.4f}{flag}")
            print(f"  {workload:<15} {name:<12} bound={bound:<5} " + " | ".join(rows))
            if args.verbose:
                for s, runs in enumerate(sets):
                    print(f"      set{s + 1}: " + " ".join(f"{r[0][name]:.6g}" for r in runs))
        mismatches = 0
        for i, seed in enumerate(seeds):
            counts = [runs[i][1] for runs in sets]
            for s in range(1, len(counts)):
                diff = {k: (counts[0].get(k), counts[s].get(k))
                        for k in set(counts[0]) | set(counts[s])
                        if counts[0].get(k) != counts[s].get(k)}
                if diff:
                    mismatches += 1
                    print(f"  {workload} seed {seed}: exact counts differ {diff}")
        bad += mismatches
        print(f"  {workload}: exact counts {'differ' if mismatches else 'repeat'} across sets",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

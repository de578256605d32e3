#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, and report.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workload knobs (rates, windows, worker counts, cache budgets, ...) live in
perfbench/workloads.json and are passed to the binary verbatim. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end set,
measured with every benchmark span off; with --trace 1 the workload runs
twice, untraced and then traced, and the metrics are the per_layer set,
including the tracing overhead of each end-to-end metric. Exits non-zero
if the build fails, a run fails, or any answer is wrong.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 80  # per binary invocation; a traced job makes two


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def build(bdir):
    """Configure once, then let CMake decide what is stale."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)])
    steps.append([str(bdir / "perfbench_selftest")])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"perfbench: step failed: {' '.join(cmd)}")
    return bdir / "perfbench"


def run_binary(exe, workload, record, seed, seconds, trace, spans=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    for k, v in record["params"].items():
        cmd += ["--param", f"{k}={v}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(f"[{workload}{' traced' if trace else ''}] {line}")
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    return result


def value(metric):
    return {"value": metric["value"], "unit": metric["unit"]}


def run_workload(exe, bench, records, workload, seed, seconds, trace):
    record = records[workload]
    plain = run_binary(exe, workload, record, seed, seconds, False)
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = {}
    if not trace:
        for m in bench["end_to_end"]:
            got = plain["e2e"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                raise SystemExit(f"perfbench: {workload} did not report {m['name']}")
            metrics[m["name"]] = value(got)
            print(f"e2e    {m['name']:<28} {got['value']:16.6f} {m['unit']:<6} "
                  f"n={got['samples']}")
    else:
        spans = build_dir() / "spans" / f"{workload}-seed{seed}.txt"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = run_binary(exe, workload, record, seed, seconds, True, spans)
        attempted += traced["attempted"]
        failed += traced["failed"]
        found = dict(traced["layer"])
        for name, m in plain["info"].items():
            found["e2e." + name] = m
        for name, m in plain["e2e"].items():
            t = traced["e2e"][name]
            found["overhead." + name] = {"value": t["value"] - m["value"],
                                         "unit": m["unit"], "samples": t["samples"]}
        declared = {m["name"]: m for m in bench["per_layer"]}
        unknown = sorted(set(found) - set(declared))
        if unknown:
            raise SystemExit(f"perfbench: undeclared per-layer metrics {unknown}")
        for name, m in declared.items():
            got = found.get(name)
            if got is None:
                # Measured on other workloads only (README.md lists where).
                metrics[name] = {"value": 0.0, "unit": m["unit"]}
                print(f"layer  {name:<28} {'-':>16} not measured on {workload}")
                continue
            if got["unit"] != m["unit"]:
                raise SystemExit(f"perfbench: {name} unit {got['unit']} != {m['unit']}")
            metrics[name] = value(got)
            print(f"layer  {name:<28} {got['value']:16.6f} {m['unit']:<6} "
                  f"n={got['samples']}")
    for name, v in plain["exact"].items():
        print(f"exact  {name:<28} {v}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = json.loads((HERE / "workloads.json").read_text())["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(records) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build(build_dir())
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" \
        else [args.workload]
    results = {w: run_workload(exe, bench, records, w, args.seed, args.seconds,
                               bool(args.trace)) for w in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

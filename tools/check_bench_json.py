#!/usr/bin/env python3
"""Schema sanity check for the BENCH_*.json artifacts (stdlib only).

Each artifact is a merge of per-binary Google Benchmark reports keyed by
binary name (see docs/BENCHMARKS.md):

    { "<binary>": { "context": {...}, "benchmarks": [ {row...}, ... ] } }

and every row must carry the fields the cross-PR trajectory tooling reads:
a string `name`, numeric `real_time`/`cpu_time`, a string `time_unit`, and
(optionally) a string `label` plus numeric counters. A malformed artifact
— truncated JSON, a benchmark binary that crashed mid-report, a renamed
field — should fail the bench CI job loudly instead of uploading a file
that silently breaks comparisons later.

Usage: python3 tools/check_bench_json.py BENCH_a.json [BENCH_b.json ...]
Exit status: 0 if every file conforms, 1 otherwise.

An empty top-level object ({}) is accepted with a warning: run_benches.sh
writes it when a bench binary was not built (e.g. no libbenchmark).
"""

from __future__ import annotations

import json
import numbers
import os
import sys

# Row fields that must be present, with their expected kinds.
REQUIRED_ROW_FIELDS = {
    "name": str,
    "real_time": numbers.Real,
    "cpu_time": numbers.Real,
    "time_unit": str,
}
# Optional row fields whose kind is still enforced when present.
OPTIONAL_ROW_FIELDS = {
    "label": str,
    "run_type": str,
}

# Rows the trajectory tooling depends on: per artifact (matched by file
# name), every listed prefix must match at least one benchmark row name in
# the file. A bench binary that silently dropped a suite (e.g. the mixed
# read/write grid) should fail CI here, not surface as a hole in the
# cross-PR comparison. The empty-{} escape above still applies: a file
# whose binary was never built is warned about, not failed.
REQUIRED_ROW_PREFIXES = {
    "BENCH_serve.json": [
        "bm_serve/",
        "bm_serve_executor/",
        "bm_serve_executor_async/",
        "bm_serve_multibase/",
        "bm_serve_sharded/",
        "bm_serve_mixed_rw/",
        "bm_serve_latency/",
        "bm_serve_telemetry_overhead/",
        "bm_serve_cache/",
        "bm_router_empty_flush/",
    ],
    "BENCH_parallel.json": [
        "bm_steal_skew/",
    ],
    "BENCH_spgemm.json": [
        "bm_auto_launch_size/",
    ],
}


def fail(path: str, message: str) -> str:
    return f"{path}: {message}"


def check_row(path: str, binary: str, i: int, row: object) -> list[str]:
    errors = []
    where = f"{binary}.benchmarks[{i}]"
    if not isinstance(row, dict):
        return [fail(path, f"{where} is not an object")]
    for field, kind in REQUIRED_ROW_FIELDS.items():
        if field not in row:
            errors.append(fail(path, f"{where} is missing '{field}'"))
        elif not isinstance(row[field], kind) or isinstance(row[field], bool):
            errors.append(
                fail(path, f"{where}.{field} is not a {kind.__name__}"))
    for field, kind in OPTIONAL_ROW_FIELDS.items():
        if field in row and not isinstance(row[field], kind):
            errors.append(
                fail(path, f"{where}.{field} is not a {kind.__name__}"))
    # Counters: any other scalar field the bench attached must be numeric
    # or string — nested structures in a row mean a corrupted merge.
    for field, value in row.items():
        if isinstance(value, (dict, list)):
            errors.append(
                fail(path, f"{where}.{field} is unexpectedly nested"))
    return errors


def check_file(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        return [fail(path, f"unreadable: {e}")]
    except json.JSONDecodeError as e:
        return [fail(path, f"invalid JSON: {e}")]
    if not isinstance(doc, dict):
        return [fail(path, "top level is not an object")]
    if not doc:
        print(f"warning: {path} is empty (bench binary not built?)",
              file=sys.stderr)
        return []
    errors = []
    for binary, report in doc.items():
        if not isinstance(report, dict):
            errors.append(fail(path, f"'{binary}' report is not an object"))
            continue
        if "benchmarks" not in report:
            errors.append(fail(path, f"'{binary}' has no 'benchmarks' list"))
            continue
        rows = report["benchmarks"]
        if not isinstance(rows, list):
            errors.append(fail(path, f"'{binary}'.benchmarks is not a list"))
            continue
        if not rows:
            errors.append(fail(path, f"'{binary}'.benchmarks is empty"))
        for i, row in enumerate(rows):
            errors.extend(check_row(path, binary, i, row))
    errors.extend(check_required_rows(path, doc))
    return errors


def check_required_rows(path: str, doc: dict) -> list[str]:
    prefixes = REQUIRED_ROW_PREFIXES.get(os.path.basename(path))
    if not prefixes:
        return []
    names = []
    for report in doc.values():
        if isinstance(report, dict) and isinstance(
                report.get("benchmarks"), list):
            for row in report["benchmarks"]:
                if isinstance(row, dict) and isinstance(row.get("name"), str):
                    names.append(row["name"])
    errors = []
    for prefix in prefixes:
        if not any(n.startswith(prefix) for n in names):
            errors.append(
                fail(path, f"no benchmark row matches required prefix "
                           f"'{prefix}'"))
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check_file(path))
    for e in all_errors:
        print(f"error: {e}", file=sys.stderr)
    checked = len(argv) - 1
    if not all_errors:
        print(f"ok: {checked} bench artifact(s) conform")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

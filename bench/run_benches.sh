#!/usr/bin/env bash
# Run the ablation + parallel-scaling benches and emit three JSON reports:
#   BENCH_parallel.json — per-kernel parallel-scaling timings
#   BENCH_spgemm.json   — SpGEMM accumulator-strategy, mask-fusion, and
#     mask-probe sweep (flat open-addressing hash vs the unordered_map
#     baseline, mask-density × strategy × fused/unfused, binary vs bitmap
#     probe, kAuto's launch-size rule)
#   BENCH_serve.json    — serving-throughput sweep (K=1/8/64 queries,
#     batched block-diagonal serving vs per-query dispatch, sync + async
#     1-shard router paths, one run_batch per base vs per-query dispatch over
#     four bases, the router's empty-flush cost, and the result-cache
#     on/off Zipf-repeat rows)
# Used locally via the `run_benches` CMake target and in CI, where the
# JSONs are uploaded as artifacts to track the perf trajectory across PRs.
# Schemas and row-reading guide: docs/BENCHMARKS.md.
#
# Usage: BENCH_BUILD_DIR=<build dir> bench/run_benches.sh [parallel.json] [spgemm.json] [serve.json]
set -euo pipefail

BUILD_DIR="${BENCH_BUILD_DIR:-build}"
OUT_PARALLEL="${1:-${BUILD_DIR}/BENCH_parallel.json}"
OUT_SPGEMM="${2:-${BUILD_DIR}/BENCH_spgemm.json}"
OUT_SERVE="${3:-${BUILD_DIR}/BENCH_serve.json}"
TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "${TMPDIR_BENCH}"' EXIT

run_bench() {
  local outdir="$1"
  local name="$2"
  local extra_args="${3:-}"
  local bin="${BUILD_DIR}/${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "skip: ${bin} not built" >&2
    return 0
  fi
  echo "=== ${name} -> ${outdir} ===" >&2
  mkdir -p "${TMPDIR_BENCH}/${outdir}"
  # shellcheck disable=SC2086
  "${bin}" ${extra_args} \
    --benchmark_format=json \
    --benchmark_out="${TMPDIR_BENCH}/${outdir}/${name}.json" \
    --benchmark_out_format=json >&2
}

# Merge one directory of per-binary reports into {bench_name: report}.
merge_reports() {
  local dir="$1"
  local out="$2"
  shopt -s nullglob
  local reports=("${dir}"/*.json)
  shopt -u nullglob
  if [[ ${#reports[@]} -eq 0 ]]; then
    echo '{}' > "${out}"
    echo "no bench reports produced; wrote empty ${out}" >&2
    return 0
  fi
  if command -v jq >/dev/null 2>&1; then
    jq -n '
      [inputs | {(input_filename | split("/")[-1] | rtrimstr(".json")): .}]
      | add // {}' "${dir}"/*.json > "${out}"
  else
    python3 - "${out}" "${dir}" <<'EOF'
import json, pathlib, sys
out, tmp = sys.argv[1], pathlib.Path(sys.argv[2])
merged = {p.stem: json.loads(p.read_text()) for p in sorted(tmp.glob("*.json"))}
pathlib.Path(out).write_text(json.dumps(merged, indent=2))
EOF
  fi
  echo "wrote ${out}" >&2
}

# Parallel-scaling sweep (unchanged trajectory series).
run_bench parallel parallel_kernels
run_bench parallel ablation_spgemm "--benchmark_filter=(bm_threads/.*|bm_(gustavson|hash|auto)/(256|1024)$)"
merge_reports "${TMPDIR_BENCH}/parallel" "${OUT_PARALLEL}"

# SpGEMM accumulator + mask-fusion ablation: the flat-hash-vs-unordered_map,
# fused-vs-unfused, and binary-vs-bitmap-probe acceptance numbers live here.
run_bench spgemm ablation_spgemm \
  "--benchmark_filter=(bm_hash_flat_vs_stdmap/.*|bm_sorted_accumulator/.*|bm_masked/.*|bm_masked_probe/.*|bm_masked_probe_hypersparse/.*|bm_masked_complement_bfs_style/.*|bm_hash_hypersparse/.*|bm_auto_launch_size/.*)"
merge_reports "${TMPDIR_BENCH}/spgemm" "${OUT_SPGEMM}"

# Batch-throughput sweep: K=1/8/64 queries, batched vs per-query dispatch,
# plus the sharded-vs-unsharded router rows (N=1/2/4 at K=8/64) — the
# serving engine's acceptance numbers (launches saved, queries/s).
run_bench serve serve_throughput
# Result-cache sweep: Zipf-repeat point mix at K=8/64, cache on vs off,
# hit rate as a counter — the cache acceptance rows (>= 2x on at 90%+
# repeats).
run_bench serve serve_cache
merge_reports "${TMPDIR_BENCH}/serve" "${OUT_SERVE}"

# Schema sanity: a malformed artifact (truncated report, crashed binary,
# renamed field) fails the run — and CI with it — instead of uploading a
# file that silently breaks cross-PR comparisons.
python3 "$(dirname "$0")/../tools/check_bench_json.py" \
  "${OUT_PARALLEL}" "${OUT_SPGEMM}" "${OUT_SERVE}"

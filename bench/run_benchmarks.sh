#!/usr/bin/env bash
# Runs the a-graph / annotation / query benchmarks and records one
# BENCH_<name>.json per binary at the repo root, so the perf trajectory is
# tracked in-tree PR over PR.
#
# Usage: bench/run_benchmarks.sh [build-dir] [extra google-benchmark flags...]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
shift || true

# Every bench/bench_*.cc must be listed here; tools/lint/check_contracts.py
# fails CI on drift.
BENCHES=(bench_agraph_ops bench_fig1_agraph bench_fig2_annotation bench_fig3_query
         bench_query_optimizer bench_interval_tree bench_rtree bench_connect_batch
         bench_concurrent_query bench_bulk_ingest bench_recovery
         bench_ontology bench_substructure bench_xml bench_governance)

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "build dir '$BUILD_DIR' not found; configure first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $bench (not built — is google-benchmark available?)" >&2
    continue
  fi
  name="${bench#bench_}"
  out="$REPO_ROOT/BENCH_${name}.json"
  echo "== $bench -> $out"
  "$bin" --benchmark_format=json --benchmark_out="$out" \
         --benchmark_out_format=json "$@" >/dev/null
done

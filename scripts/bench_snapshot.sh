#!/usr/bin/env bash
# Regenerates the committed throughput snapshots BENCH_runner.json and
# BENCH_sampler.json at the repository root.
#
# Usage:
#   scripts/bench_snapshot.sh           # full run (minutes), writes repo root
#   scripts/bench_snapshot.sh --smoke   # seconds-scale CI check, writes results/
#
# The snapshot times the four hot paths (single-walk hitting, k-parallel
# hitting, phase-engine trial throughput, raw jump sampling) at fixed
# seeds; see crates/bench/src/snapshot.rs for the methodology.

set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=()
for arg in "$@"; do
  case "$arg" in
    --smoke) ARGS+=("--smoke") ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo build --release --offline -p levy-bench --bin bench_snapshot
exec cargo run --release --offline -q -p levy-bench --bin bench_snapshot -- ${ARGS[@]+"${ARGS[@]}"}

#!/usr/bin/env bash
# Builds and runs the multi-tenant serving benchmark (bench_serve_json):
# a QueryService (bounded admission queue, deficit-round-robin tenant
# lanes, snapshot-pinned executor slots) under closed-loop load from
# 1/8/64 tenant submitters, against the single-threaded serial RunQuery
# baseline. Reports sustained queries/sec and p50/p95/p99 service
# latency per tenant count. Writes the machine-readable results to
# BENCH_serve.json at the repo root so the serving-throughput trajectory
# is tracked across PRs; the host's hardware_concurrency is recorded
# with the timings (on a 1-core host multi-tenant throughput tracks the
# serial baseline rather than exceeding it). The submitters run at a
# per-tenant in-flight cap of 1, and the bench exits nonzero if any of
# them is rejected. Pass --quick for the sub-second CI variant (a
# liveness/backpressure gate more than a measurement) — quick runs write
# their JSON into the build tree so the tracked full-run artefact is never
# overwritten by a gate run.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

quick=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target bench_serve_json -j "$(nproc)"

json_out="$repo_root/BENCH_serve.json"
if [[ -n "$quick" ]]; then
  json_out="$build_dir/BENCH_serve_quick.json"
fi
"$build_dir/bench/bench_serve_json" /dev/stdout "$json_out" $quick
echo "wrote $json_out"

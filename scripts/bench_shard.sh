#!/usr/bin/env bash
# Builds and runs the sharded-streaming benchmark (bench_shard_json):
# the plan space of a 3-table chain join over a 3-cloud federation
# (>10^6 equivalent QEPs) is partitioned into 1/2/4/8 shards and the
# whole enumerate -> cost -> Pareto-fold -> merge pipeline is timed per
# shard count, with every sharded front cross-checked bitwise against
# the serial single stream (the bench exits nonzero on any mismatch).
# Writes the machine-readable results to BENCH_shard.json at the repo
# root so the sharding perf trajectory is tracked across PRs; the host's
# hardware_concurrency is recorded with the timings. Pass --quick for
# the ~10^5-plan CI variant (correctness gate more than a measurement) —
# quick runs write their JSON into the build tree so the tracked
# full-run artefact is never overwritten by a gate run.
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
cmake --build "$build_dir" --target bench_shard_json -j "$(nproc)"

json_out="$repo_root/BENCH_shard.json"
if [[ -n "$quick" ]]; then
  json_out="$build_dir/BENCH_shard_quick.json"
fi
"$build_dir/bench/bench_shard_json" /dev/stdout "$json_out" $quick
echo "wrote $json_out"

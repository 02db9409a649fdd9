#!/usr/bin/env bash
# Builds and runs the snapshot read-path benchmark, writing the
# machine-readable results to BENCH_snapshot.json at the repo root:
# predictions/sec through pinned EstimatorSnapshots at 1/4/16 reader
# threads with a live writer publishing epochs, against one serial
# reader on a single pinned snapshot, plus the publish-cost sweep, so
# snapshot-overhead and reader-scaling changes are tracked across PRs.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target bench_snapshot_json -j "$(nproc)"

"$build_dir/bench/bench_snapshot_json" "$repo_root/BENCH_snapshot.json"
echo "wrote $repo_root/BENCH_snapshot.json"

#!/usr/bin/env bash
# Builds and runs the streaming-pipeline benchmark (section 2 of
# bench_example31_enumeration): the candidate stream (feature rows, plans
# built only for the front) at several chunk sizes against an
# EnumeratePhysical reference that builds and costs every plan, on an
# Example-3.1-scale plan fleet, reporting plans/sec and the peak number of
# simultaneously resident candidates. Writes the machine-readable results
# to BENCH_stream.json at the repo root so the streaming perf trajectory
# is tracked across PRs; every stream row is cross-checked against the
# reference front and its plans (matches_reference).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target bench_example31_enumeration -j "$(nproc)"

"$build_dir/bench/bench_example31_enumeration" /dev/stdout \
  "$repo_root/BENCH_stream.json"
echo "wrote $repo_root/BENCH_stream.json"

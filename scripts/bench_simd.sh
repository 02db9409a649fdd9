#!/usr/bin/env bash
# Builds and runs the SIMD kernel benchmark, writing the machine-readable
# results to BENCH_simd.json at the repo root: per-kernel ns/call for the
# scalar tier vs the runtime-dispatched vector tier (Dot, Gram, blocked
# GEMM, DREAM batch prediction), plus the dispatched tier name,
# hardware_concurrency and the measured commit.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target bench_simd_json -j "$(nproc)"

"$build_dir/bench/bench_simd_json" "$repo_root/BENCH_simd.json"
echo "wrote $repo_root/BENCH_simd.json"

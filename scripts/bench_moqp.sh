#!/usr/bin/env bash
# Builds and runs the MOQP pipeline benchmark, writing the
# machine-readable results to BENCH_moqp.json at the repo root so the
# perf trajectory (per-plan vs feature-row costing across shard counts
# 1/2/4/8, plans/sec over an Example-3.1-scale enumeration) is tracked
# across PRs. Every row is cross-checked against the serial per-plan
# baseline (matches_serial).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target bench_moqp_json -j "$(nproc)"

"$build_dir/bench/bench_moqp_json" "$repo_root/BENCH_moqp.json"
echo "wrote $repo_root/BENCH_moqp.json"

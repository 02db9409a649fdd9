#!/usr/bin/env bash
# Builds and runs the DREAM window-growth benchmark (bench_dream_json):
# batch vs incremental engine, ns per estimate, on a full-rank series
# (window forced to the cap) and on the serving shape (Example 2.1
# histories from MidasSystem::Bootstrap, rank deficient, default DREAM
# options, 50..5,000 observations, plus a RunQuery feedback replay). The
# serving shape is a correctness gate first: the benchmark exits nonzero
# when the engines disagree on a chosen window or convergence flag, or when
# the incremental engine's R²-bound-pruned scan differs by a single bit
# from an unpruned scan that fits every window. Writes
# the machine-readable results to BENCH_dream.json at the repo root so the
# perf trajectory is tracked across PRs. Pass --quick for the CI-sized gate
# (small histories and the feedback replay only) — quick runs write their
# JSON into the build tree so the tracked full-run artefact is never
# overwritten by a gate run. Override BUILD_DIR to gate alternate presets
# (e.g. the force-scalar build).
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
cmake --build "$build_dir" --target bench_dream_json -j "$(nproc)"

json_out="$repo_root/BENCH_dream.json"
if [[ -n "$quick" ]]; then
  json_out="$build_dir/BENCH_dream_quick.json"
fi
"$build_dir/bench/bench_dream_json" "$json_out" $quick
echo "wrote $json_out"

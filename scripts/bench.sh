#!/usr/bin/env bash
# Builds and runs one of the JSON benchmarks and writes its machine-readable
# results to BENCH_<name>.json at the repo root, so each perf trajectory is
# tracked across changes:
#
#   dream     bench_dream_json: batch vs incremental DREAM engine, ns per
#             estimate, on a full-rank series and on Example 2.1 serving
#             histories (plus a RunQuery feedback replay). Exits nonzero
#             when the engines disagree on a window or convergence flag, or
#             when the R²-bound-pruned scan differs by a bit from an
#             unpruned scan.
#   moqp      bench_moqp_json: per-plan vs feature-row MOQP costing at
#             shards 1/2/4/8 over an Example-3.1-scale enumeration, every
#             row cross-checked against the serial per-plan front.
#   serve     bench_serve_json: closed-loop QueryService load from 1/8/64
#             tenants (round-robin lanes, snapshot-pinned slots) against a
#             serial RunQuery baseline; exits nonzero on any rejection.
#   shard     bench_shard_json: a >10^6-plan space partitioned into 1/2/4/8
#             shards, enumerate -> cost -> Pareto-fold -> merge, every front
#             cross-checked bitwise against the serial stream.
#   simd      bench_simd_json: per-kernel ns/call, scalar vs dispatched tier.
#   snapshot  bench_snapshot_json: pinned-snapshot readers at 1/4/16 threads
#             beside a live writer, plus the publish-cost sweep.
#   stream    bench_example31_enumeration: window-growth table plus the
#             candidate stream at several chunk sizes against an
#             EnumeratePhysical reference.
#
# serve, shard and stream print their text report to stdout. --quick (dream,
# serve and shard only) runs the CI-sized gate and writes
# BENCH_<name>_quick.json into the build tree, so a gate run never
# overwrites a tracked full-run artefact. Override BUILD_DIR to run against
# another preset's build (e.g. build-force-scalar).
#
# Usage: scripts/bench.sh <dream|moqp|serve|shard|simd|snapshot|stream> [--quick]
set -euo pipefail

usage() {
  echo "usage: $0 <dream|moqp|serve|shard|simd|snapshot|stream> [--quick]" >&2
  exit 2
}

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Stamp results with the measured code version (read by the emitters).
export MIDAS_GIT_COMMIT="${MIDAS_GIT_COMMIT:-$(git -C "$repo_root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)}"
build_dir="${BUILD_DIR:-$repo_root/build}"

[[ $# -ge 1 ]] || usage
name="$1"
shift
case "$name" in
  dream) target=bench_dream_json ;;
  moqp) target=bench_moqp_json ;;
  serve) target=bench_serve_json ;;
  shard) target=bench_shard_json ;;
  simd) target=bench_simd_json ;;
  snapshot) target=bench_snapshot_json ;;
  stream) target=bench_example31_enumeration ;;
  *) usage ;;
esac

quick=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

json_out="$repo_root/BENCH_$name.json"
if [[ -n "$quick" ]]; then
  case "$name" in
    dream | serve | shard) json_out="$build_dir/BENCH_${name}_quick.json" ;;
    *) echo "--quick applies only to dream, serve and shard" >&2; exit 2 ;;
  esac
fi

args=()
case "$name" in
  serve | shard | stream) args+=(/dev/stdout) ;;
esac
args+=("$json_out")
[[ -z "$quick" ]] || args+=("$quick")

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target "$target" -j "$(nproc)"

"$build_dir/bench/$target" "${args[@]}"
echo "wrote $json_out"

#!/usr/bin/env bash
# Tier-1 gate: builds the default, asan, ubsan and tsan presets and runs
# the full test suite under each, so numerically delicate code (e.g. the
# Givens-updated QR factor behind DREAM's incremental engine and the
# blocked GEMM kernels) is sanitizer-verified on every change and the
# thread-pool / sharded MOQP pipeline paths are race-checked under
# ThreadSanitizer. The asan preset also defines _GLIBCXX_ASSERTIONS, so
# libstdc++'s precondition checks (container bounds, distribution
# parameters such as std::normal_distribution's stddev > 0) abort the
# suite on every change. The streaming-pipeline equivalence suites (fast
# non-dominated sort vs naive oracle, online Pareto archive vs
# materialized front, candidate stream vs materialized enumeration,
# feature-row vs per-plan costing across shard counts x chunk sizes, the
# randomized MOQP property suite over every algorithm and predictor kind,
# and the serving path vs an in-test per-plan replay) are discovered with
# the rest and run under every preset.
#
# The snapshot suites ride the same discovery: the snapshot concurrency
# suite (readers at 1/4/16 threads pinning epochs against live writers) is
# race-checked under the tsan preset by default, and so are the
# optimizer's plan-space memo suites:
# PlanSpaceMemoConcurrencyTest.ThreadsOverMoreVariantsThanTheMemoHolds
# (OptimizeQuery threads admitting, sharing and evicting spaces over more
# logical plans than the memo holds, against a serial run) and
# ServeStressTest.TenantsOnSeveralLogicalPlansReplayBitIdentical (service
# slots sharing the memo over three logical plans, against a serial
# replay). The TrainingWindow use-after-mutation death tests arm
# themselves in the asan/tsan builds (MIDAS_TRAINING_WINDOW_CHECKS; GCC
# exposes no UBSan detection macro, so the pure-ubsan preset skips them).
#
# The force-scalar preset compiles the SIMD vector tiers out entirely
# (MIDAS_FORCE_SCALAR=ON) and reruns the whole suite, so the bitwise
# batch==scalar / shard==serial equivalence gates are exercised with the
# pinned scalar kernels on every change, alongside the default preset
# where the GEMM-backed learner suites run as 1e-12-tolerance gates
# against the dispatched vector tier (DREAM's batch scoring runs the
# per-row dot, so its suites are exact under both).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
cd "$repo_root"

for preset in default force-scalar asan ubsan tsan; do
  echo "=== preset: $preset ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"
done

# Sharded-streaming cross-check: the quick bench partitions a ~10^5-plan
# enumeration into 1/2/4/8 shards and exits nonzero unless every sharded
# front is bitwise identical to the serial stream.
echo "=== bench: sharded streaming cross-check (--quick) ==="
"$repo_root/scripts/bench.sh" shard --quick

# Serving smoke: closed-loop 1/8-tenant load through the QueryService
# (admission queue, round-robin lanes, snapshot-pinned slots) must sustain
# without rejections or stalls; the submitters run at a per-tenant
# in-flight cap of 1 and the bench exits nonzero on any rejection, so a
# lane still held when a client's future is ready fails the gate.
# Sub-second runs, liveness gate more than a measurement.
echo "=== bench: multi-tenant serving smoke (--quick) ==="
"$repo_root/scripts/bench.sh" serve --quick

# DREAM engine cross-check: the quick bench fits Example 2.1 serving
# histories (rank deficient: constant per-site MiB columns) with both
# engines, including a RunQuery feedback replay whose windows converge, and
# exits nonzero unless the incremental engine picks the batch reference's
# window and convergence flag every time, and unless its R²-bound-pruned
# scan equals an in-bench unpruned scan (the same factor fitted at every
# window) bit for bit in window, flag, R² and coefficients. Run against
# the default preset (dispatched SIMD kernels) and the force-scalar preset.
echo "=== bench: DREAM engine cross-check (--quick) ==="
"$repo_root/scripts/bench.sh" dream --quick
echo "=== bench: DREAM engine cross-check, force-scalar (--quick) ==="
BUILD_DIR="$repo_root/build-force-scalar" "$repo_root/scripts/bench.sh" dream --quick

# Serving-path correctness gate: the end-to-end benchmark's output checks
# replay every query through the per-plan public calls (EnumeratePhysical,
# ExtractFeatures, Modelling::Predict, ParetoFrontIndices, BestInPareto)
# and compare with RunQuery/QueryService, so a divergence of the
# feature-row pipeline from the per-plan path fails the run. Short runs:
# a correctness gate, not a measurement.
echo "=== perfbench: output checks, all workloads (--trace 1) ==="
python3 "$repo_root/perfbench/run.py" --workload all --seconds 2 --trace 1

echo "=== all presets green ==="

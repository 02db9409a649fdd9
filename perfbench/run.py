#!/usr/bin/env python3
"""End-to-end benchmark of MIDAS: builds the runner from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload deep_history --seed 2019 \
        --seconds 20 --trace 0

Run it from the root of a source checkout. It configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs perfbench_runner. The runner does a fixed
amount of work per run, derived from --seconds, and checks every query's
output. It exits non-zero when a check fails.

Output: one line per metric (name, value, unit, sample count), then as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
Metrics the run measured beyond BENCHMARK.json's lists (query_p95_ms,
query_p99_ms, the unscaled raw.* timings) are printed as "report only".
--workload all runs the three workloads in turn, each with its own lines.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a separate traced run. The full
report, with provenance, goes to <build>/results/ and the trace spans to
<build>/traces/. Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("deep_history", "wide_plan_space", "multi_tenant")
DEFAULT_SEED = 2019
# Held back for checking a claimed gain on a seed not used while writing it.
HOLDOUT_SEED = 7211
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it. Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc, _ = run_process(["cmake", "-S", BENCH_DIR, "-B", out,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                            BUILD_TIMEOUT_S)
        if rc != 0:
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    rc, _ = run_process(["cmake", "--build", out, "--target",
                         "perfbench_runner", "-j", jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(out, "perfbench_runner")
    return binary if rc == 0 and os.path.isfile(binary) else None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload and prints its metric lines and the result line.
    Returns True when every output check passed."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = build_dir()
    traces = os.path.join(out, "traces")
    results = os.path.join(out, "results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    rc, stdout = run_process(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace),
         "--trace-dir", traces], RUN_TIMEOUT_S, capture=True)
    lines = (stdout or "").strip().splitlines()
    if rc is None or not lines:
        log("runner produced no report")
        return False
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("runner report is not JSON: " + lines[-1][:200])
        return False

    report["provenance"]["git_commit"] = git_commit()
    report["provenance"]["source_sha256"] = source_digest()
    report["provenance"]["default_seed"] = DEFAULT_SEED
    report["provenance"]["holdout_seed"] = HOLDOUT_SEED
    report["runner_exit_code"] = rc
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    prov = report["provenance"]
    print("provenance: " + " ".join(
        f"{k}={prov[k]}" for k in ("workload", "seed", "git_commit",
                                   "source_sha256", "nproc", "simd_tier",
                                   "build_type", "timed_queries", "blocks")
        if k in prov))
    metrics = {}
    missing = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        print(f"{m['name']:36s} {got['value']:>16.6g} {got['unit']:6s} "
              f"n={got['samples']}")
    # Everything else the run measured (the tail percentiles, unscaled
    # raw.* timings, the host speed factor), printed but not gated.
    for name_, got in sorted(report["metrics"].items()):
        if name_ not in metrics:
            print(f"{name_:36s} {got['value']:>16.6g} {got['unit']:6s} "
                  f"n={got['samples']} (report only)")
    for failure in report.get("failures", []):
        print("check failed: " + failure)
    for name_ in missing:
        print("metric missing: " + name_)
    correct = bool(report["correct"]) and rc == 0 and not missing
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_workload(binary, spec, workload, args.seed, args.seconds,
                          args.trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""caf2 benchmark: four paper-scale workloads, each run in fresh processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>

Builds perfbench/ (the library from ../src plus caf2_perfbench) into
.bench_build/perfbench, then runs the workload's binary one process at a
time, never concurrently:

  --trace 0  repeats the measured run in fresh processes for --seconds
             (always at least once), adds set-up-only processes until there
             are enough set-up samples, and reports the medians of wall_s,
             setup_s and peak_rss_mb plus the exact virtual_ms.
  --trace 1  runs the workload untraced, traced (obs capture plus host-clock
             spans around every public call) and, for sharded workloads,
             untraced on one shard; reports every per-layer metric listed in
             perfbench/layers.json.

Every exact field must repeat bit-for-bit across a workload's runs (and
between its traced and untraced runs) or the run counts as failed. The last
line of stdout is one JSON object: correct, attempted, failed, metrics. The
exit code is 0 only when every correctness and determinism check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "caf2_perfbench"
TRACES = ROOT / ".bench_build" / "traces"

# Each binary picks its workload's shard count: at most two shard workers
# plus the main thread, within the hardware threads of a four-core host.
WORKLOADS = ["uts", "randomaccess", "ring4k", "collectives"]

# Fields that are exact for a fixed seed and shard count: any difference
# between two runs of the same configuration is a determinism failure.
EXACT_FIELDS = [
    "events", "context_switches", "virtual_ms", "windows", "window_stalls",
    "shard_events", "messages", "finish_scopes", "finish_rounds",
    "uts_root_seed", "nodes", "steals_attempted", "steals_successful",
    "lifeline_pushes", "updates", "fs_applied", "gup_lossy_images",
]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "virtual_ms": "ms"}

SETUP_SAMPLES = 5       # set-up samples per untraced run, at minimum
SETUP_SAMPLES_MAX = 9   # ... and at most
RUN_TIMEOUT_S = 170


class RunFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; exit 2 if that fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"build: cannot run {cmd[0]}: {err}")
            sys.exit(2)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)


def run_binary(workload, seed, *extra):
    """One fresh process of the benchmark binary; returns its JSON record."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{' '.join(cmd)} timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{' '.join(cmd)} exited {proc.returncode} "
                        "without a result")
    record = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise RunFailed(f"{' '.join(cmd)} exited {proc.returncode}")
    return record


class Tally:
    """Correctness and determinism checks, attempted vs failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add_run(self, record):
        self.attempted += record["checks_attempted"]
        self.failed += record["checks_failed"]

    def same_exact(self, ref, other, what):
        """One determinism check: every exact field both records carry."""
        self.attempted += 1
        diff = [f for f in EXACT_FIELDS
                if f in ref and f in other and ref[f] != other[f]]
        if diff:
            self.failed += 1
            for f in diff:
                log(f"determinism: {what}: {f} {ref[f]} != {other[f]}")


def run_untraced(workload, seed, seconds, tally):
    start = time.monotonic()
    reps, setups = [], []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rec = run_binary(workload, seed)
        longest = max(longest, time.monotonic() - t0)
        tally.add_run(rec)
        if reps:
            tally.same_exact(reps[0], rec, f"{workload} repeat {len(reps)}")
        reps.append(rec)
        setups.append(rec["setup_s"])
        if time.monotonic() - start + longest > seconds:
            break
    longest = 0.0
    while len(setups) < SETUP_SAMPLES_MAX:
        if (len(setups) >= SETUP_SAMPLES and
                time.monotonic() - start + longest > seconds):
            break
        t0 = time.monotonic()
        setups.append(run_binary(workload, seed, "--setup-only")["setup_s"])
        longest = max(longest, time.monotonic() - t0)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    log(f"{workload}: wall_s {walls}; {len(setups)} set-up samples; "
        f"{time.monotonic() - start:.1f} s")
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med("peak_rss_mb"),
        "virtual_ms": reps[0]["virtual_ms"],
    }


def layer_metrics(base, traced, serial):
    """Per-layer metrics from the untraced, traced and one-shard records."""
    g = lambda rec, key: rec.get(key, 0)
    shard_events = base["shard_events"]
    stall_ratio = imbalance = 0.0
    if len(shard_events) > 1:
        stall_ratio = base["window_stalls"] / max(
            1, base["windows"] * len(shard_events))
        imbalance = max(shard_events) / statistics.mean(shard_events)
    events = base["events"]
    images = base["images"]
    scopes = traced["obs_finish_scopes"]
    rounds = traced["obs_finish_rounds"]
    attempts = g(base, "steals_attempted")
    substrate = 0.0
    if "uts_phase_s" in base:
        substrate = (base["uts_phase_s"] * 1e9 -
                     base["nodes"] * base["sha1_ns_per_node"]) / events
    m = {
        "sim.events": events,
        "sim.ns_per_event": (base["wall_s"] - base["setup_s"]) * 1e9 / events,
        "sim.context_switches": base["context_switches"],
        "sim.window_stall_ratio": stall_ratio,
        "sim.shard_imbalance": imbalance,
        "sim.shard_speedup": serial["wall_s"] / base["wall_s"],
        "runtime.setup_us_per_image": base["setup_s"] * 1e6 / images,
        "runtime.resting_kb_per_image":
            base["resting_rss_mb"] * 1024 / images,
        "runtime.comm_rss_mb": base["peak_rss_mb"] - base["resting_rss_mb"],
        "runtime.handlers": traced["handlers"],
        "runtime.mailbox_high_water": traced["mailbox_high_water"],
        "net.messages": traced["messages"],
        "net.latency_us.p50": traced["latency_us_p50"],
        "net.latency_us.p99": traced["latency_us_p99"],
        "core.finish_scopes": scopes,
        "core.finish_rounds": rounds,
        "core.rounds_per_scope": rounds / scopes if scopes else 0.0,
        "core.finish_wait_share": traced["finish_wait_share"],
        "core.cofence_wait_share": traced["cofence_wait_share"],
        "ops.copy_async_ns.p50": g(traced, "copy_async_ns_p50"),
        "ops.copy_async_ns.p99": g(traced, "copy_async_ns_p99"),
        "ops.cofence_us.p50": g(traced, "cofence_us_p50"),
        "ops.cofence_us.p99": g(traced, "cofence_us_p99"),
        "kernels.sha1_ns_per_node": g(base, "sha1_ns_per_node"),
        "kernels.uts_substrate_ns_per_event": substrate,
        "kernels.steal_success_ratio":
            g(base, "steals_successful") / attempts if attempts else 0.0,
        "kernels.ra_fs_s": g(base, "ra_fs_s"),
        "kernels.ra_gup_s": g(base, "ra_gup_s"),
        "kernels.ra_gup_lossy_images": g(base, "gup_lossy_images"),
        "obs.trace_overhead": traced["wall_s"] / base["wall_s"],
    }
    for op in ("allreduce_8B", "allreduce_256K", "broadcast_256K",
               "alltoallv"):
        m[f"ops.{op}_us"] = g(base, f"{op}_us")
        m[f"ops.{op}_virtual_us"] = g(base, f"{op}_virtual_us")
    return m


def run_traced(workload, seed, tally):
    TRACES.mkdir(parents=True, exist_ok=True)
    stem = TRACES / f"{workload}-seed{seed}"
    base = run_binary(workload, seed)
    traced = run_binary(workload, seed, "--trace", f"--spans={stem}.spans.csv")
    tally.add_run(base)
    tally.add_run(traced)
    tally.same_exact(base, traced, f"{workload} traced vs untraced")
    serial = base
    if base["shards"] > 1:
        serial = run_binary(workload, seed, "--shards=1")
        tally.add_run(serial)
    stem.with_suffix(".json").write_text(json.dumps(
        {"untraced": base, "traced": traced, "one_shard": serial}, indent=1))
    metrics = layer_metrics(base, traced, serial)
    spec = json.loads((HERE / "layers.json").read_text())["metrics"]
    units = {s["name"]: s["unit"] for s in spec}
    if set(units) != set(metrics):
        raise RunFailed("per-layer metrics differ from layers.json: "
                        f"{sorted(set(units) ^ set(metrics))}")
    for name, summary in traced["span_summary"].items():
        print(f"  span {name}: {summary['count']} calls, "
              f"wait {summary['wait_s']:.4f} s, self {summary['self_s']:.4f} s")
    return {name: (metrics[name], units[name]) for name in units}


def measure(workload, seed, seconds, trace):
    tally = Tally()
    if trace:
        metrics = run_traced(workload, seed, tally)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                   run_untraced(workload, seed, seconds, tally).items()}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")

    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace)
        except (RunFailed, KeyError, ValueError) as err:
            log(f"{name}: {err}")
            sys.exit(1)
        ok = ok and result["correct"]
        if args.workload == "all":
            shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{name}: {shown}; failed {result['failed']}/"
                  f"{result['attempted']} checks", flush=True)
        else:
            print(json.dumps(result), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

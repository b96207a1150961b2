#!/usr/bin/env python3
"""Simulator benchmark: builds simbench, runs one workload, checks it.

    python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the simulator
libraries and the simbench program into .bench_build/simbench (Release).

Each run starts one simbench process, which runs an untimed warm-up
batch and then repeats the workload's batch until --seconds (default:
BENCHMARK.json's run_seconds) have passed, with build-only passes that
time the constructors, and a host-speed probe, between the batches. A
host time is each point's mean over the measured repetitions, summed
over the workload's points and scaled to seconds of the reference host
by the probe; peak RSS is that of the process, which ran nothing but
this workload.

--trace 0 prints the end-to-end metrics BENCHMARK.json names.
--trace 1 runs an untraced and then a traced process and prints the
per-layer metrics. It writes .bench_build/simbench/out/<W>.layers.json
(the per-layer table with span self times) beside <W>.spans.json (the
benchmark's spans as Chrome trace-event JSON, for Perfetto).

Correctness: a point fails if it raised, did not complete, retired other
instruction or reference counts than a standalone drain of its op
streams implies, if a later batch simulated anything else than the
first, or if its simulated results (and, traced, its per-layer
counters) differ from simbench/reference.json for that seed. The
untraced process (SimSession::run for fig6_sweep) and the traced one
(Machine::run) are pinned separately; a point on which the two disagree
is reported on stderr and in layers.json, not failed. `--record
SEED...` re-records the reference; do it only for a deliberate model
change.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
OUT = os.path.join(BUILD, "out")
EXE = os.path.join(BUILD, "simbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("fig6_sweep", "coherence_storm", "read_shared")
# A child runs for its seconds plus the warm-up batch, the batch that
# crosses them, the drain oracle and, traced, one untimed point; this
# bounds the rest.
CHILD_MARGIN_S = 60
# simbench's probe takes this long, on average, on the reference host
# when that host is calm (README, Host and noise). Host times are
# reported in seconds of that host.
PROBE_REF_S = 0.022


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed point)."""


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", jobs])
    with open(build_log, "w") as f:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                timeout=840).returncode
            if rc != 0:
                # A failed configure must not be mistaken for a build
                # tree on the next call.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache) and cmd[1] == "-S":
                    os.remove(cache)
                with open(build_log) as g:
                    tail = g.read()[-2000:]
                raise BenchError(f"build step {cmd[:2]} failed:\n{tail}")


def child_env():
    # The library reads CCNUMA_* knobs from the environment; the
    # benchmark always measures the default configuration.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CCNUMA_")}


def run_child(mode, workload, seed, seconds):
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    if mode == "traced":
        cmd += ["--out", OUT]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       env=child_env(), timeout=seconds + CHILD_MARGIN_S)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {p.returncode}: "
                         f"{p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_digests(sample):
    """label -> digest of everything the sample simulated for it."""
    return {p["label"]: digest([p["result"], p.get("counters")])
            for p in sample["points"]}


def load_reference(workload, seed):
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_points(samples, reference):
    """Return (attempted, failed, labels whose untraced and traced
    RunResults differ) over the point runs of the samples."""
    attempted = failed = 0
    results = {}
    for s in samples:
        kind = s["mode"]
        digests = point_digests(s)
        for p in s["points"]:
            label = p["label"]
            attempted += s["batches"]
            bad = p["error"]
            if not bad and reference is not None and \
                    reference.get(label, {}).get(kind) != digests[label]:
                bad = f"{kind} results differ from the reference"
            if bad:
                # Later batches reproduce the first one's results or
                # are counted in failed_batches already.
                failed += p["failed_batches"] if bad == p["error"] \
                    else s["batches"]
                log(f"{s['workload']} {label}: {bad}")
            results.setdefault(label, set()).add(digest(p["result"]))
    differ = sorted(label for label, ds in results.items() if len(ds) > 1)
    for label in differ:
        log(f"note: {label}: the untraced and traced processes "
            "simulated different results")
    return attempted, failed, differ


def mean(xs):
    return sum(xs) / len(xs)


def host_scale(sample):
    """Reference seconds per host second in one run: the probe's
    reference time over its mean in the run. The host's speed for the
    simulator changes by up to 1.6x, for seconds to minutes at a time,
    and the probe, spread over the same stretch as the batches, slows
    with it (see README, Host and noise)."""
    return PROBE_REF_S / mean(sample["probe_s"])


def workload_time(sample, key):
    """Reference seconds of the workload in one run: each point's mean
    over its measured repetitions, summed over the points, scaled by
    host_scale."""
    return host_scale(sample) * sum(mean(p[key]) for p in sample["points"])


def end_to_end(run):
    wall = workload_time(run, "wall_s")
    return {
        "wall_s": wall,
        "refs_per_s": run["refs"] / wall,
        "setup_s": workload_time(run, "setup_s"),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def span_table(traced):
    """Per span name, reference seconds of total and self time: each
    point's mean over the measured batches, summed over the points."""
    scale = host_scale(traced)
    table = {}
    for p in traced["points"]:
        for name, t in p["spans"].items():
            row = table.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
            row["total_s"] += scale * mean(t["total_s"])
            row["self_s"] += scale * mean(t["self_s"])
    return table


def per_layer(untraced, traced):
    c = traced["counters"]
    self_time = span_table(traced)

    def span(name):
        return self_time[name]["total_s"]

    m = dict(c)
    m["workload.make_s"] = span("workload.make")
    m["workload.drain_s"] = span("workload.drain")
    m["system.build_s"] = span("system.build")
    m["system.run_s"] = span("system.run")
    m["sim.ns_per_event"] = m["system.run_s"] * 1e9 / c["sim.events"]
    m["node.hit_ratio"] = (c["node.l1_hits"] + c["node.l2_hits"]) / \
        c["node.cache_accesses"]
    m["directory.cache_hit_ratio"] = c["directory.cache_hits"] / \
        c["directory.lookups"]
    m["cc.requests_per_ref"] = c["cc.requests"] / c["node.mem_refs"]
    m["cc.utilization"] = c["cc.occupancy_ticks"] / c["cc.capacity_ticks"]
    m["obs.traced_wall_s"] = span("point")
    m["obs.untraced_wall_s"] = workload_time(untraced, "wall_s")
    m["obs.overhead_ratio"] = m["obs.traced_wall_s"] / \
        m["obs.untraced_wall_s"]
    # The unscaled host figures of the untraced process.
    m["host.probe_s"] = mean(untraced["probe_s"])
    m["host.wall_s"] = sum(mean(p["wall_s"]) for p in untraced["points"])
    return m, self_time


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(bench, workload, seed, seconds, trace):
    specs = bench["per_layer" if trace else "end_to_end"]
    build()
    os.makedirs(OUT, exist_ok=True)
    if trace:
        # Traced batches are slower; give them the larger share.
        untraced = run_child("run", workload, seed, 0.4 * seconds)
        traced = run_child("traced", workload, seed, 0.6 * seconds)
        attempted, failed, differ = check_points(
            [untraced, traced], load_reference(workload, seed))
        values, self_time = per_layer(untraced, traced)
        with open(os.path.join(OUT, f"{workload}.layers.json"), "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "batches": traced["batches"],
                       "self_time": self_time, "metrics": values,
                       "traced_results_differ": differ},
                      f, indent=1, sort_keys=True)
    else:
        run = run_child("run", workload, seed, seconds)
        attempted, failed, _ = check_points(
            [run], load_reference(workload, seed))
        values = end_to_end(run)

    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"no value for metric {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record(seeds):
    """Re-record simbench/reference.json for the given seeds."""
    build()
    os.makedirs(OUT, exist_ok=True)
    ref = {}
    for w in WORKLOADS:
        for seed in seeds:
            u = run_child("run", w, seed, 0)
            t = run_child("traced", w, seed, 0)
            _, failed, _ = check_points([u, t], None)
            if failed:
                raise BenchError(f"{w} seed {seed}: {failed} points failed")
            du, dt = point_digests(u), point_digests(t)
            ref.setdefault(w, {})[str(seed)] = {
                label: {"run": du[label], "traced": dt[label]}
                for label in du}
            log(f"recorded {w} seed {seed}")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    try:
        if args.record:
            record(args.record)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        bench = load_bench()
        seconds = bench["run_seconds"] if args.seconds is None \
            else args.seconds
        result = measure(bench, args.workload, args.seed, seconds,
                         bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-time benchmark of vcpsim.

Builds the library and the benchmark driver from source, runs one
workload again and again in fresh processes for the given number of
seconds, checks every run's simulated outcome against the digest
recorded for that workload and seed, and prints the metrics by name
with their units.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 \\
        --trace 0

--trace 0 reports the end-to-end metrics (untraced driver); --trace 1
reports the per-layer metrics from the traced driver, alternating
with untraced runs so the tracing overhead is measured too.  The
metric lists, units and workloads are those of BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("churn", "wide", "observed", "federation")

# Fewest driver runs a measurement is made of, whatever --seconds is.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# No driver run starts after this many seconds, so a run stays well
# inside the 180 s a benchmark run may take even when the threaded
# federation stalls on a contended core (seen at 5x its usual time).
HARD_STOP_S = 100
# Workloads whose driver runs on one core.  The threaded federation's
# round barriers hand off between its threads ~150k times a process;
# across cores each hand-off wakes an idle vCPU, and how long that
# takes is the host's scheduling of co-tenants (4.1 to 11 s a
# process, against 2.0 to 2.8 s on one core), not the program.  On one core the
# hand-offs are context switches and the round protocol's own cost
# is what is timed.
ONE_CORE = ("federation",)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def digest_key(workload, result):
    """Federation's outcome depends on its execution-shard count."""
    if workload == "federation":
        return "federation.exec%d" % result["shards"]
    return workload


# ------------------------------------------------------------------ build

def build_type():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def build(traced):
    """Configure (once) and build the drivers; refuse non-release."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            raise BenchError("cmake configure failed")
    bt = build_type()
    if bt not in ("Release", "RelWithDebInfo"):
        raise BenchError("%s is built as '%s', neither Release nor "
                         "RelWithDebInfo; its timings are not valid"
                         % (BUILD, bt or "unknown"))
    targets = ["vcpbench"] + (["vcpbench_traced"] if traced else [])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise BenchError("build failed")


def machine_context():
    ctx = {"nproc": os.cpu_count(), "build_type": build_type(),
           "machine": platform.machine()}
    try:
        ctx["compiler"] = subprocess.run(
            ["c++", "--version"], capture_output=True,
            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        ctx["compiler"] = "unknown"
    # The ceiling stops git from reporting an enclosing repository's
    # commit when the checkout itself is not a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        ctx["commit"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        ctx["commit"] = "unknown"
    return ctx


# ------------------------------------------------------------------- runs

def run_driver(exe, workload, seed, extra=()):
    """Run one driver process; returns (result, wall_s, peak_rss_mb),
    result None when the process failed."""
    out_dir = os.path.join(BUILD, "out", workload)
    os.makedirs(out_dir, exist_ok=True)
    # Unlink the previous process's exports (observed writes ~100 MB)
    # before their write-back starts: rewriting them in place makes
    # the file system flush them while the next process runs, and that
    # I/O slows its simulation by tens of percent.
    for entry in os.scandir(out_dir):
        if entry.is_file():
            os.unlink(entry.path)
    cmd = [os.path.join(BUILD, exe), workload, "--seed", str(seed),
           "--out", out_dir] + list(extra)
    pin = None
    if workload in ONE_CORE:
        core = {max(os.sched_getaffinity(0))}
        pin = lambda: os.sched_setaffinity(0, core)  # noqa: E731
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, preexec_fn=pin)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        log("%s exited with %d" % (exe, proc.returncode))
        return None, wall, rss_mb
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("%s printed no result" % exe)
        return None, wall, rss_mb
    return result, wall, rss_mb


def check_runs(seed, results, recorded):
    """Correctness gate.  Every run must have produced a result whose
    digest equals the recorded digest for (workload, seed), or, for a
    seed without one, the digest of every other run of the seed.
    Returns (correct, ops attempted, ops of runs that failed the check,
    management ops failed in all, notes): a failed run's ops all count
    as failed."""
    attempted = 0
    failed = 0
    ops_failed = 0
    notes = []
    good = [r for r in results if r is not None]
    expect = recorded
    if expect is None and good:
        expect = good[0]["digest"]
        notes.append("no recorded digest for seed %d: runs checked "
                     "against each other" % seed)
    # A run that crashed still attempted as many ops as the others.
    typical = good[0]["ops_attempted"] if good else 1
    for r in results:
        if r is None:
            attempted += typical
            failed += typical
            ops_failed += typical
            notes.append("a run failed to produce a result")
            continue
        attempted += r["ops_attempted"]
        ok = (r["digest"] == expect and r["ops_completed"] > 0 and
              r["ops_completed"] + r["ops_failed"] <= r["ops_attempted"])
        if ok:
            ops_failed += r["ops_failed"]
        else:
            failed += r["ops_attempted"]
            ops_failed += r["ops_attempted"]
            notes.append("digest %s != expected %s" % (r["digest"],
                                                       expect))
    correct = failed == 0 and bool(results)
    return correct, max(attempted, 1), failed, ops_failed, notes


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    v = sorted(values)
    k = min(len(v) - 1, max(0, int(round(q * (len(v) - 1)))))
    return v[k]


def median(values):
    return statistics.median(values)


def measure(workload, seed, seconds, trace):
    """Run the driver until `seconds` have gone (at least MIN_RUNS
    times), after one untimed warm-up process that loads the binary
    and the page cache.  With trace, traced and untraced runs
    alternate.  Returns the warm-up, the untraced and the traced
    runs."""
    runs, traced = [], []
    start = time.perf_counter()
    warm = [run_driver("vcpbench_traced" if trace else "vcpbench",
                       workload, seed)]
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        runs.append(run_driver("vcpbench", workload, seed))
        if trace:
            traced.append(run_driver("vcpbench_traced", workload, seed))
        per_round = time.perf_counter() - t0
        n_min = MIN_TRACED_RUNS if trace else MIN_RUNS
        # Start another round only if it ends within half a round of
        # the deadline, so a run lasts `seconds` on average.
        if len(runs) >= n_min and \
                time.perf_counter() + per_round / 2 > deadline:
            break
        if time.perf_counter() - start > HARD_STOP_S:
            break
    return warm, runs, traced


def end_to_end(runs):
    """The end-to-end metrics from untraced runs (medians).  Each
    process builds its stack once, cold, as a vcpsim user's does."""
    good = [(r, w, m) for r, w, m in runs if r is not None]
    if not good:
        return None
    p50s, p95s, nsop = [], [], []
    for r, _, _ in good:
        sl = r["slice_ms"]
        p50s.append(quantile(sl, 0.50))
        p95s.append(quantile(sl, 0.95))
        nsop.append(1e9 * r["sim_s"] / max(1, r["ops_completed"]))
    return {
        "wall_s": median([w for _, w, _ in good]),
        "setup_s": median([r["setup_s"] for r, _, _ in good]),
        "ns_per_op": median(nsop),
        "slice_ms_p50": median(p50s),
        "slice_ms_p95": median(p95s),
        "peak_rss_mb": median([m for _, _, m in good]),
    }


LAYERS = ("bench", "workload", "sim", "cloud", "controlplane", "infra",
          "stats", "trace", "telemetry", "analysis")


def self_time_table(trace, traced_wall):
    """Per-kind and per-layer self times of one traced run, plus how
    much of the process wall time the main thread's spans cover."""
    kinds = trace["kinds"]
    lines = ["%-26s %-12s %12s %10s %10s %10s" %
             ("span", "layer", "calls", "total_s", "self_s",
              "main_self")]
    layer_self = {l: 0.0 for l in LAYERS}
    for name, k in kinds.items():
        layer_self[k["layer"]] = layer_self.get(k["layer"], 0.0) + \
            k["main_self_s"]
        if k["calls"]:
            lines.append("%-26s %-12s %12d %10.4f %10.4f %10.4f" %
                         (name, k["layer"], k["calls"], k["total_s"],
                          k["self_s"], k["main_self_s"]))
    # Writing the span file happens after the main span closes.
    layer_self["bench"] += trace["span_write_s"]
    covered = sum(layer_self.values())
    lines.append("")
    lines.append("main-thread self time by layer (sim: kernel dispatch "
                 "plus callback time no wrapped call covers; bench: the "
                 "benchmark's digest, teardown and span file):")
    for layer in sorted(layer_self, key=layer_self.get, reverse=True):
        lines.append("  %-12s %10.4f s  %5.1f%%" %
                     (layer, layer_self[layer],
                      100.0 * layer_self[layer] / traced_wall))
    lines.append("  %-12s %10.4f s  %5.1f%%  (process start and exit)" %
                 ("outside", traced_wall - covered,
                  100.0 * (traced_wall - covered) / traced_wall))
    return layer_self, covered, "\n".join(lines)


def per_layer(runs, traced):
    """The per-layer metrics from traced runs (medians for times;
    counts repeat exactly, checked by the digest)."""
    good = [(r, w) for r, w, _ in traced if r is not None]
    plain = [w for r, w, _ in runs if r is not None]
    if not good or not plain:
        return None, ""
    r0 = good[0][0]
    k0 = r0["trace"]["kinds"]

    def kmed(name, field):
        return median([r["trace"]["kinds"][name][field] for r, _ in good])

    def rmed(field):
        return median([r[field] for r, _ in good])

    def calls(name):
        return k0[name]["calls"]

    traced_wall = median([w for _, w in good])
    layer_self, covered, table = self_time_table(r0["trace"], good[0][1])
    events = r0["events"]
    sim_run_s = kmed("sim.run", "total_s")
    m = {
        "sim.events": events,
        "sim.slices": len(r0["slice_ms"]),
        "sim.ns_per_event": 1e9 * sim_run_s / max(1, events),
        "sim.rounds": r0["rounds"],
        "sim.events_per_round": events / r0["rounds"] if r0["rounds"]
        else float(events),
        "sim.stalled_rounds": r0["stalled_rounds"],
        "sim.barrier_wait_s": rmed("barrier_wait_s"),
        "sim.cross_msgs": r0["cross_msgs"],
        "sim.unattributed_s": kmed("sim.run", "main_self_s"),
        "workload.actions": r0["actions"],
        "workload.vapp_lookups": calls("cloud.vapp"),
        "workload.lookups_per_action":
            calls("cloud.vapp") / max(1, r0["actions"]),
        "cloud.deploy_calls": calls("cloud.deploy"),
        "cloud.deploy_s": kmed("cloud.deploy", "self_s") +
            kmed("cloud.undeploy", "self_s"),
        "cloud.place_calls": calls("cloud.place"),
        "cloud.place_s": kmed("cloud.place", "self_s"),
        "cloud.place_us": 1e6 * kmed("cloud.place", "self_s") /
            max(1, calls("cloud.place")),
        "cloud.host_lookups_per_place":
            calls("infra.place_host_lookup") /
            max(1, calls("cloud.place")),
        "cloud.deploy_fail_ratio": r0["deploys_failed"] /
            max(1, r0["deploys_ok"] + r0["deploys_failed"]),
        "cp.submits": calls("cp.submit"),
        "cp.submit_s": kmed("cp.submit", "self_s"),
        "cp.lock_calls": calls("cp.lock"),
        "cp.agent_execs": calls("cp.agent_exec"),
        "cp.ops_attempted": r0["ops_attempted"],
        "cp.ops_completed": r0["ops_completed"],
        "cp.ops_failed": r0["ops_failed"],
        "cp.op_p95_sim_s": r0["op_p95_sim_s"],
        "cp.dispatch_util": r0["dispatch_util"],
        "infra.transfers": calls("infra.transfer"),
        "infra.transfer_s": kmed("infra.transfer", "self_s"),
        "infra.inventory_lookups": calls("infra.host_lookup") +
            calls("infra.vm_lookup") + calls("infra.ds_lookup"),
        "infra.build_s": kmed("infra.build", "self_s"),
        "trace.spans": r0["trace_spans"],
        "trace.dropped": r0["trace_dropped"],
        "trace.sampler_ticks": r0["sampler_ticks"],
        "trace.export_s": rmed("trace_export_s"),
        "trace.bytes_out": r0["trace_bytes"],
        "telemetry.snapshots": r0["telemetry_snapshots"],
        "telemetry.finish_s": rmed("telemetry_finish_s"),
        "telemetry.bytes_out": r0["telemetry_bytes"],
        "analysis.report_s": rmed("analysis_report_s"),
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": traced_wall - median(plain),
        "bench.accounted_share": covered / good[0][1],
    }
    for layer in LAYERS:
        m["self." + layer + "_s"] = layer_self.get(layer, 0.0)
    return m, table


# ------------------------------------------------------------------- main

def emit(correct, attempted, failed, values, declared):
    metrics = {}
    for d in declared:
        if d["name"] not in values:
            raise BenchError("metric %s was not measured" % d["name"])
        metrics[d["name"]] = {"value": values[d["name"]],
                              "unit": d["unit"]}
    for d in declared:
        print("%-32s %16.6g %s" % (d["name"], values[d["name"]],
                                   d["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        spec = load_spec()
        build(traced=bool(args.trace))
        ctx = machine_context()
        print("perfbench: workload=%s seed=%d seconds=%g trace=%d" %
              (args.workload, args.seed, args.seconds, args.trace))
        print("machine: " + json.dumps(ctx, sort_keys=True))

        warm, runs, traced = measure(args.workload, args.seed,
                                     args.seconds, bool(args.trace))
        results = [r for r, _, _ in warm + runs + traced]
        recorded = None
        first = next((r for r in results if r is not None), None)
        if first is not None:
            recorded = load_digests().get(
                digest_key(args.workload, first), {}).get(str(args.seed))
        correct, attempted, failed, ops_failed, notes = check_runs(
            args.seed, results, recorded)
        for n in sorted(set(notes)):
            print("check: " + n)
        print("check: %d runs, digest %s, %s" % (
            len(results), first["digest"] if first else "-",
            "recorded" if recorded else "unrecorded seed"))

        if args.trace:
            values, table = per_layer(runs, traced)
            declared = spec["per_layer"]
            if values is not None:
                values["ops_failed_ratio"] = ops_failed / attempted
                print(table)
                with open(os.path.join(BUILD, "out", args.workload,
                                       "selftime.txt"), "w") as f:
                    f.write(table + "\n")
        else:
            values = end_to_end(runs)
            declared = spec["end_to_end"]
        if values is None:
            raise BenchError("no run of the driver produced a result")
        emit(correct, attempted, failed, values, declared)
        return 0
    except BenchError as e:
        log("perfbench: error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())

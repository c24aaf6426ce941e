/**
 * @file
 * Parallel-execution smoke gate (ctest: perf_smoke_parallel).
 *
 * Identity: a short F3 slice executed serially and under the sharded
 * engine's deterministic merge (K=8) must produce a byte-identical
 * stats registry — the oracle property the whole sharded kernel
 * rests on.  Cheap enough for every CI run.
 */

#include <cstdio>

#include "bench_util.hh"

namespace {

using namespace vcp;

/** The F3 slice artifact under a given shard count. */
std::string
f3Artifact(int shards, std::uint64_t *events = nullptr)
{
    CloudSetupSpec spec = sweepCloud(/*linked=*/true);
    spec.workload.duration = minutes(2);
    spec.workload.arrival.rate_per_hour = 7680.0;
    spec.server.dispatch_width = 16;
    spec.exec.shards = shards;
    CloudSimulation cs(spec, /*seed=*/31);
    cs.start();
    cs.runFor(minutes(2));
    cs.runFor(minutes(30));
    if (events)
        *events = cs.eventsProcessed();
    return cs.stats().toCsv();
}

} // namespace

int
main()
{
    setLogQuiet(true);

    std::uint64_t serial_events = 0, sharded_events = 0;
    std::string serial = f3Artifact(1, &serial_events);
    std::string sharded = f3Artifact(8, &sharded_events);
    if (serial != sharded || serial_events != sharded_events) {
        std::fprintf(stderr,
                     "FAIL: sharded merge diverged from serial "
                     "(%llu vs %llu events; csv %s)\n",
                     (unsigned long long)serial_events,
                     (unsigned long long)sharded_events,
                     serial == sharded ? "equal" : "DIFFERENT");
        return 1;
    }
    std::printf("identity: serial == merge(K=8), %llu events, "
                "stats byte-identical\n",
                (unsigned long long)serial_events);
    std::printf("PASS\n");
    return 0;
}

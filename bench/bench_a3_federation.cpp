/**
 * @file
 * A3 (ablation) — Scaling the control plane *out*: deploy throughput
 * versus the number of management-server shards at fixed total
 * hardware.
 *
 * The paper's conclusion is that the management control plane caps
 * cloud provisioning; the design response it motivates is sharding
 * the control plane.  This ablation fixes the physical plant (32
 * hosts, 8 datastores) and splits it across 1/2/4/8 share-nothing
 * management domains, then fires an identical deploy burst at the
 * federation.  Throughput should scale with shards until per-shard
 * hardware (or placement fragmentation) binds.
 */

#include <chrono>

#include "bench_util.hh"
#include "cloud/federation.hh"

namespace {

struct FedPoint
{
    double makespan_min = 0.0;
    double throughput_per_h = 0.0;
    /** Host wall time of the whole point, build through run. */
    double wall_ms = 0.0;
};

/**
 * Run one federation point.  With @p exec_shards > 1 the share-
 * nothing stacks are bound to a ShardedSimulator and executed by
 * real threads (Threaded mode) — the intra-run parallel path whose
 * results the federation identity tests pin to the merge oracle.
 */
FedPoint
run(int shards, int burst, int exec_shards, std::uint64_t seed)
{
    using namespace vcp;
    const int total_hosts = 32;
    const int total_ds = 8;

    ShardedSimulator::Options eo;
    eo.mode = exec_shards > 1 ? ShardExecMode::Threaded
                              : ShardExecMode::Merge;
    ShardedSimulator eng(exec_shards < 1 ? 1 : exec_shards, seed,
                         eo);
    StatRegistry stats;
    FederationConfig cfg;
    cfg.shards = shards;
    cfg.hosts_per_shard = total_hosts / shards;
    cfg.host.cores = 16;
    cfg.host.memory = gib(128);
    cfg.host.cpu_overcommit = 8.0;
    cfg.datastores_per_shard = total_ds / shards;
    cfg.datastore.capacity = gib(2048);
    cfg.datastore.copy_bandwidth = 200.0 * 1024 * 1024;
    cfg.server.dispatch_width = 16;
    cfg.director.pool.max_clones_per_base = 100000;
    if (exec_shards > 1)
        cfg.engine = &eng;

    CloudFederation fed(eng.shard(0), stats, cfg);
    std::size_t tenant = fed.addTenant({"org", 0});
    std::size_t tmpl = fed.createTemplate("tmpl", gib(8), 0.5, 1,
                                          gib(1), 1, hours(24));

    // Completion bookkeeping is indexed by *execution* shard so each
    // worker thread touches only its own slot (a shared counter
    // would race under Threaded mode).  The whole burst is routed up
    // front — routing reads every shard's inventory and must not run
    // mid-flight.
    struct ExecSlot
    {
        int completed = 0;
        SimTime done = 0;
    };
    std::vector<ExecSlot> slots(
        static_cast<std::size_t>(eng.numShards()));
    for (int i = 0; i < burst; ++i) {
        int s = fed.deploy(tenant, tmpl, [&](const VApp &va) {
            if (va.state != VAppState::Deployed)
                fatal("bench_a3: deploy failed");
            ShardId es = ShardedSimulator::currentShard();
            std::size_t idx =
                es == ShardedSimulator::kNoShard ? 0 : es;
            slots[idx].completed += 1;
            slots[idx].done =
                eng.shard(static_cast<ShardId>(idx)).now();
        });
        if (s < 0)
            fatal("bench_a3: routing failed");
    }
    eng.runUntil(hours(12));

    int completed = 0;
    SimTime done = 0;
    for (const ExecSlot &s : slots) {
        completed += s.completed;
        done = std::max(done, s.done);
    }
    if (completed != burst)
        fatal("bench_a3: burst incomplete");

    FedPoint p;
    p.makespan_min = toMinutes(done);
    p.throughput_per_h = 60.0 * burst / p.makespan_min;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    SweepOptions opts = parseSweepOptions(argc, argv);
    int burst = opts.positional.empty()
        ? 1024
        : parsePositiveOption("burst", opts.positional[0].c_str());
    banner("A3", "control-plane scale-out (burst of " +
                     std::to_string(burst) +
                     " deploys, fixed hardware" +
                     (opts.shards > 1
                          ? ", " + std::to_string(opts.shards) +
                                " execution shards (threaded)"
                          : "") +
                     ")");

    const std::vector<int> shard_counts = {1, 2, 4, 8};
    std::vector<FedPoint> results(shard_counts.size());
    makeSweepRunner(opts).run(results.size(), [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        results[i] = run(shard_counts[i], burst, opts.shards,
                         ParallelSweepRunner::forkSeed(111, i));
        results[i].wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
    });

    Table t({"shards", "hosts/shard", "makespan_min",
             "throughput/h", "speedup"});
    double base = results[0].makespan_min;
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
        const FedPoint &p = results[i];
        t.row()
            .cell(static_cast<std::int64_t>(shard_counts[i]))
            .cell(static_cast<std::int64_t>(32 / shard_counts[i]))
            .cell(p.makespan_min, 1)
            .cell(p.throughput_per_h, 0)
            .cell(base / p.makespan_min, 2);
    }
    printTable("burst makespan vs shard count", t);
    maybeWriteCsv(opts, t);
    std::printf("expected shape: near-linear speedup while the "
                "control plane binds; flattens once per-shard "
                "hardware or data-plane limits take over.\n\n");

    // Host wall time varies run to run, so it stays out of the
    // table above and out of --csv, which are deterministic.
    Table w({"shards", "wall_ms"});
    for (std::size_t i = 0; i < shard_counts.size(); ++i)
        w.row()
            .cell(static_cast<std::int64_t>(shard_counts[i]))
            .cell(results[i].wall_ms, 1);
    printTable("host wall time per point", w);
    return 0;
}

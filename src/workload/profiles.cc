#include "workload/profiles.hh"

#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/sampler.hh"
#include "trace/tracer.hh"

namespace vcp {

namespace {

/**
 * Control-plane level probes (API, dispatch, DB queue and occupancy)
 * of @p s under their telemetry names.  The gauge sampler and the
 * registry register the same list, so each level is one series in
 * the export, carrying the sampler's resolution when one runs.
 */
std::vector<std::pair<const char *, std::function<std::int64_t()>>>
levelProbes(ManagementServer &s)
{
    return {
        {"api.queue",
         [&s] {
             return static_cast<std::int64_t>(s.apiCenter().queueLength());
         }},
        {"api.busy",
         [&s] {
             return static_cast<std::int64_t>(s.apiCenter().busyServers());
         }},
        {"sched.queue",
         [&s] {
             return static_cast<std::int64_t>(s.scheduler().queueLength());
         }},
        {"sched.running",
         [&s] {
             return static_cast<std::int64_t>(s.scheduler().inFlight());
         }},
        {"db.queue",
         [&s] {
             return static_cast<std::int64_t>(
                 s.database().center().queueLength());
         }},
        {"db.busy",
         [&s] {
             return static_cast<std::int64_t>(
                 s.database().center().busyServers());
         }},
    };
}

} // namespace

CloudSetupSpec
cloudASpec()
{
    CloudSetupSpec s;
    s.name = "cloud-a-devtest";

    s.infra.hosts = 64;
    s.infra.host.cores = 16;
    s.infra.host.mhz_per_core = 2600.0;
    s.infra.host.memory = gib(128);
    s.infra.datastores = 8;
    s.infra.ds_capacity = gib(4096);
    s.infra.ds_copy_bandwidth = 200.0 * 1024 * 1024;

    for (int i = 0; i < 16; ++i) {
        TenantConfig t;
        t.name = "org-a" + std::to_string(i);
        t.vm_quota = 400;
        s.tenants.push_back(t);
    }

    s.templates = {
        {"lin-small", gib(8), 0.5, 1, gib(2), 2, hours(8)},
        {"lin-large", gib(16), 0.6, 2, gib(4), 3, hours(8)},
        {"win-dev", gib(24), 0.5, 2, gib(4), 1, hours(24)},
        {"ci-stack", gib(8), 0.4, 1, gib(2), 4, hours(4)},
    };

    s.director.use_linked_clones = true;
    s.director.pool.aggressive = true;
    s.director.pool.replication_factor = 2;
    s.director.pool.max_clones_per_base = 32;

    s.workload.duration = hours(24);
    s.workload.arrival.rate_per_hour = 120.0;
    s.workload.arrival.diurnal = true;
    s.workload.arrival.diurnal_amplitude = 0.8;
    s.workload.arrival.cv = 2.0;
    s.workload.tenant_zipf_s = 1.0;
    return s;
}

CloudSetupSpec
cloudBSpec()
{
    CloudSetupSpec s;
    s.name = "cloud-b-saas";

    s.infra.hosts = 128;
    s.infra.host.cores = 24;
    s.infra.host.mhz_per_core = 2400.0;
    s.infra.host.memory = gib(192);
    s.infra.datastores = 16;
    s.infra.ds_capacity = gib(8192);
    s.infra.ds_copy_bandwidth = 300.0 * 1024 * 1024;

    for (int i = 0; i < 8; ++i) {
        TenantConfig t;
        t.name = "org-b" + std::to_string(i);
        t.vm_quota = 900;
        s.tenants.push_back(t);
    }

    s.templates = {
        {"app-tier", gib(32), 0.6, 4, gib(8), 3, hours(72)},
        {"db-tier", gib(64), 0.7, 8, gib(16), 1, hours(168)},
    };

    s.director.use_linked_clones = true;
    s.director.pool.aggressive = false; // lazy: the Cloud B pain point
    s.director.pool.replication_factor = 1;
    s.director.pool.max_clones_per_base = 48;

    s.workload.duration = hours(24);
    s.workload.arrival.rate_per_hour = 40.0;
    s.workload.arrival.diurnal = true;
    s.workload.arrival.diurnal_amplitude = 0.4;
    s.workload.arrival.cv = 1.2;
    s.workload.tenant_zipf_s = 0.6;
    // Steadier population: fewer deploys, more day-2 operations.
    s.workload.action_weights = {15.0, 4.0, 35.0, 18.0,
                                 10.0, 8.0,  10.0};
    return s;
}

// Runs between engine_ and srv_ in the member-init sequence: by the
// time the server copies its config, it points at the live engine.
const ManagementServerConfig &
CloudSimulation::shardedServerConfig()
{
    spec_.server.engine = &engine_;
    return spec_.server;
}

CloudSimulation::CloudSimulation(const CloudSetupSpec &spec,
                                 std::uint64_t seed)
    : spec_(spec),
      engine_(spec.exec.shards < 1 ? 1 : spec.exec.shards, seed),
      inv_(engine_.shard(0)),
      net_(engine_.shard(0), spec.infra.network),
      srv_(engine_.shard(0), inv_, net_, stats_,
           shardedServerConfig()),
      cloud_(srv_, spec.director)
{
    if (spec_.infra.hosts < 1 || spec_.infra.datastores < 1)
        fatal("CloudSimulation: need at least one host and datastore");

    // Stamp this thread's log lines with this simulation's clock
    // (thread-local, so sweep workers don't fight over it).
    setLogClock(engine_.shard(0).nowPtr());

    // Shared-storage cluster: every host sees every datastore.
    for (int d = 0; d < spec_.infra.datastores; ++d) {
        DatastoreConfig dc;
        dc.name = "ds" + std::to_string(d);
        dc.capacity = spec_.infra.ds_capacity;
        dc.copy_bandwidth = spec_.infra.ds_copy_bandwidth;
        ds_ids.push_back(inv_.addDatastore(dc));
    }
    ClusterId cluster = inv_.addCluster(spec_.name + "-cluster");
    for (int h = 0; h < spec_.infra.hosts; ++h) {
        HostConfig hc = spec_.infra.host;
        hc.name = "host" + std::to_string(h);
        HostId id = inv_.addHost(hc);
        inv_.assignHostToCluster(id, cluster);
        for (DatastoreId ds : ds_ids)
            inv_.connectHostToDatastore(id, ds);
        host_ids.push_back(id);
    }

    // A multi-link fabric needs every host and datastore pinned to a
    // rack; round-robin matches how the director spreads placements,
    // so rack-local and cross-rack copies both occur.
    Fabric &topo = net_.topology();
    if (!topo.degenerate()) {
        int racks = spec_.infra.network.fabric.racks;
        for (std::size_t i = 0; i < host_ids.size(); ++i)
            topo.attachHost(host_ids[i], static_cast<int>(i % racks));
        for (std::size_t i = 0; i < ds_ids.size(); ++i)
            topo.attachDatastore(ds_ids[i],
                                 static_cast<int>(i % racks));
    }

    for (const TenantConfig &t : spec_.tenants)
        tenant_ids.push_back(cloud_.addTenant(t));

    // Seed template golden masters round-robin across datastores.
    std::size_t ds_cursor = 0;
    for (const TemplateSpec &t : spec_.templates) {
        DatastoreId ds = ds_ids[ds_cursor++ % ds_ids.size()];
        template_ids.push_back(cloud_.createTemplate(
            t.name, ds, t.disk, t.fill, t.vcpus, t.memory, t.vm_count,
            t.lease));
    }

    driver_ = std::make_unique<WorkloadDriver>(
        cloud_, spec_.workload, engine_.shard(0).rng().fork());
}

CloudSimulation::~CloudSimulation()
{
    if (logClock() == engine_.shard(0).nowPtr())
        setLogClock(nullptr);
}

void
CloudSimulation::run(SimDuration drain)
{
    SimTime end = engine_.now() + spec_.workload.duration + drain;
    driver_->start();
    engine_.runUntil(end);
}

void
CloudSimulation::enableTracing(SpanTracer *tracer)
{
    srv_.attachTracer(tracer);
    cloud_.attachTracer(tracer);
}

void
CloudSimulation::addStandardGauges(GaugeSampler &sampler)
{
    for (auto &[name, probe] : levelProbes(srv_))
        sampler.addGauge(name, std::move(probe));
}

void
CloudSimulation::enableTelemetry(TelemetryRegistry *reg)
{
    srv_.attachTelemetry(reg);
    if (!reg)
        return;

    // Queue-depth / occupancy gauges.  Sampled on the cold snapshot
    // (and sampler) path, so probes may walk aggregates.
    for (auto &[name, probe] : levelProbes(srv_))
        reg->addGaugeProbe(name, std::move(probe));
    reg->addGaugeProbe("agents.busy", [this] {
        return static_cast<std::int64_t>(srv_.agentSlotsBusy());
    });
    reg->addGaugeProbe("agents.queued", [this] {
        return static_cast<std::int64_t>(srv_.agentQueueLength());
    });
    reg->addGaugeProbe("locks.keys", [this] {
        return static_cast<std::int64_t>(srv_.lockManager().lockedKeys());
    });
    reg->addGaugeProbe("fabric.active_transfers", [this] {
        return static_cast<std::int64_t>(
            net_.topology().activeTransfers());
    });

    // Per-subsystem utilizations — the health report's input.
    reg->addUtilProbe("util.api",
                      [this] { return srv_.apiCenter().utilization(); });
    reg->addUtilProbe("util.dispatch",
                      [this] { return srv_.scheduler().utilization(); });
    reg->addUtilProbe("util.db", [this] {
        return srv_.database().center().utilization();
    });
    reg->addUtilProbe("util.agents",
                      [this] { return srv_.agentMeanUtilization(); });
    reg->addUtilProbe("util.datastores",
                      [this] { return srv_.datastoreMeanUtilization(); });
    reg->addUtilProbe("util.fabric", [this] {
        double elapsed = static_cast<double>(sim().now());
        return elapsed > 0.0
            ? static_cast<double>(
                  net_.topology().maxLinkBusyTime()) / elapsed
            : 0.0;
    });

    // Monotone counters maintained elsewhere; the emitter differences
    // consecutive readings into windowed rates.
    reg->addCounterProbe("cp.ops_submitted",
                         [this] { return srv_.opsSubmitted(); });
    reg->addCounterProbe("cp.ops_completed",
                         [this] { return srv_.opsCompleted(); });
    reg->addCounterProbe("cp.ops_failed",
                         [this] { return srv_.opsFailed(); });
    reg->addCounterProbe("cp.bytes_moved", [this] {
        return static_cast<std::uint64_t>(srv_.bytesMoved());
    });
    reg->addCounterProbe("db.txns", [this] {
        return srv_.database().txnsCommitted();
    });
    reg->addCounterProbe("fabric.reroutes", [this] {
        return net_.topology().reroutes();
    });
    reg->addCounterProbe("fabric.failed_transfers", [this] {
        return net_.topology().failedTransfers();
    });

    // Per-shard engine series.  Shard-scoped: exported under the
    // trailing "shards" section because their values legitimately
    // differ across --parallel-shards counts.
    reg->addCounterProbe(
        "sim.events", [this] { return engine_.eventsProcessed(); },
        true);
    for (int s = 0; s < engine_.numShards(); ++s) {
        auto sid = static_cast<ShardId>(s);
        std::string prefix = "shard" + std::to_string(s);
        reg->addCounterProbe(
            prefix + ".events",
            [this, sid] { return engine_.shardStats(sid).events; },
            true);
        reg->addCounterProbe(
            prefix + ".cross_sent",
            [this, sid] { return engine_.shardStats(sid).cross_sent; },
            true);
    }
}

} // namespace vcp

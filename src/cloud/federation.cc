#include "cloud/federation.hh"

#include <limits>

#include "sim/logging.hh"

namespace vcp {

const char *
shardRoutingName(ShardRouting r)
{
    switch (r) {
      case ShardRouting::RoundRobin:
        return "round-robin";
      case ShardRouting::LeastLoaded:
        return "least-loaded";
    }
    return "unknown";
}

CloudFederation::CloudFederation(Simulator &sim_, StatRegistry &stats_,
                                 const FederationConfig &cfg_)
    : sim(sim_), stats(stats_), cfg(cfg_)
{
    if (cfg.shards < 1)
        fatal("CloudFederation: need at least one shard");
    if (cfg.datastore.capacity <= 0)
        fatal("CloudFederation: datastore capacity unset");

    for (int s = 0; s < cfg.shards; ++s) {
        auto shard = std::make_unique<Shard>();

        // With an engine attached the whole stack of federation
        // shard s lives on one execution shard: the stacks share
        // nothing, so the partition is shard-closed and safe for
        // Threaded runs.  The server gets no engine of its own, so
        // its agents and datastore slots bind to that same kernel.
        Simulator *ksim = &sim;
        StatRegistry *sreg = &stats;
        if (cfg.engine) {
            ksim = &cfg.engine->shard(static_cast<ShardId>(
                s % cfg.engine->numShards()));
            shard->own_stats = std::make_unique<StatRegistry>();
            sreg = shard->own_stats.get();
        }

        shard->inventory = std::make_unique<Inventory>(*ksim);
        shard->network =
            std::make_unique<Network>(*ksim, cfg.network);
        shard->server = std::make_unique<ManagementServer>(
            *ksim, *shard->inventory, *shard->network, *sreg,
            cfg.server);
        shard->director = std::make_unique<CloudDirector>(
            *shard->server, cfg.director);

        std::vector<DatastoreId> ds_ids;
        for (int d = 0; d < cfg.datastores_per_shard; ++d) {
            DatastoreConfig dc = cfg.datastore;
            dc.name = "s" + std::to_string(s) + "-ds" +
                      std::to_string(d);
            ds_ids.push_back(shard->inventory->addDatastore(dc));
        }
        ClusterId cluster = shard->inventory->addCluster(
            "shard" + std::to_string(s));
        for (int h = 0; h < cfg.hosts_per_shard; ++h) {
            HostConfig hc = cfg.host;
            hc.name = "s" + std::to_string(s) + "-h" +
                      std::to_string(h);
            HostId id = shard->inventory->addHost(hc);
            shard->inventory->assignHostToCluster(id, cluster);
            for (DatastoreId ds : ds_ids)
                shard->inventory->connectHostToDatastore(id, ds);
        }
        shards.push_back(std::move(shard));
    }
}

std::size_t
CloudFederation::addTenant(const TenantConfig &tcfg)
{
    for (auto &shard : shards)
        shard->tenants.push_back(shard->director->addTenant(tcfg));
    return tenant_count++;
}

std::size_t
CloudFederation::createTemplate(const std::string &name,
                                Bytes disk_capacity,
                                double fill_fraction, int vcpus,
                                Bytes memory, int vm_count,
                                SimDuration lease)
{
    for (auto &shard : shards) {
        DatastoreId ds = shard->inventory->datastoreIds().front();
        shard->templates.push_back(shard->director->createTemplate(
            name, ds, disk_capacity, fill_fraction, vcpus, memory,
            vm_count, lease));
    }
    return template_count++;
}

StatRegistry &
CloudFederation::shardStats(std::size_t i)
{
    Shard &s = *shards[i];
    return s.own_stats ? *s.own_stats : stats;
}

std::size_t
CloudFederation::pickShard()
{
    switch (cfg.routing) {
      case ShardRouting::RoundRobin:
        return rr_cursor++ % shards.size();
      case ShardRouting::LeastLoaded: {
        std::size_t best = 0;
        std::size_t best_load =
            std::numeric_limits<std::size_t>::max();
        for (std::size_t s = 0; s < shards.size(); ++s) {
            // Live tenant VMs plus in-flight routed deploys.
            std::size_t load =
                shards[s]->inventory->numVms() -
                shards[s]->templates.size() +
                static_cast<std::size_t>(shards[s]->pending_vms);
            if (load < best_load) {
                best_load = load;
                best = s;
            }
        }
        return best;
      }
    }
    return 0;
}

int
CloudFederation::deploy(std::size_t tenant_index,
                        std::size_t template_index, DeployCallback cb)
{
    if (tenant_index >= tenant_count ||
        template_index >= template_count) {
        return -1;
    }
    // The router reads every shard's inventory and mutates routed
    // state — serialized work by design.  During a Threaded run the
    // calling worker owns only its own shard, so routing must happen
    // between runs (the A3 bench fires its deploy schedule up front).
    if (cfg.engine && cfg.engine->running() &&
        cfg.engine->mode() == ShardExecMode::Threaded) {
        panic("CloudFederation::deploy during a Threaded run: route "
              "deploys before runUntil() or use Merge mode");
    }
    std::size_t s = pickShard();
    Shard &shard = *shards[s];
    DeployRequest req;
    req.tenant = shard.tenants[tenant_index];
    req.tmpl = shard.templates[template_index];

    int vm_count =
        shard.director->catalog().get(req.tmpl).vm_count;
    shard.pending_vms += vm_count;
    Shard *shard_ptr = &shard;
    VAppId id = shard.director->deployVApp(
        req, [shard_ptr, vm_count,
              cb = std::move(cb)](const VApp &va) {
            shard_ptr->pending_vms -= vm_count;
            if (cb)
                cb(va);
        });
    if (!id.valid()) {
        shard.pending_vms -= vm_count;
        return -1;
    }
    ++routed;
    stats.counter(routed_stat, "federation.deploys_routed").inc();
    return static_cast<int>(s);
}

std::uint64_t
CloudFederation::vmsProvisioned() const
{
    std::uint64_t n = 0;
    for (const auto &shard : shards)
        n += shard->director->vmsProvisioned();
    return n;
}

std::uint64_t
CloudFederation::opsCompleted() const
{
    std::uint64_t n = 0;
    for (const auto &shard : shards)
        n += shard->server->opsCompleted();
    return n;
}

} // namespace vcp

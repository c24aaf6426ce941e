/**
 * @file
 * Control-plane federation: a cloud sharded across several
 * independent management servers.
 *
 * The paper's conclusion — provisioning rate is capped by the
 * management control plane — implies the obvious design response:
 * scale the control plane *out*.  A CloudFederation builds K
 * complete stacks (inventory + network + management server +
 * director), each owning a slice of the hosts and datastores, on one
 * simulated clock, and routes every deploy to a shard by policy.
 * Because shards share nothing but the clock, control-plane
 * resources (dispatch slots, DB connections, lock tables) multiply
 * with K, while per-shard placement quality degrades — the trade the
 * federation bench (A3) quantifies.
 */

#ifndef VCP_CLOUD_FEDERATION_HH
#define VCP_CLOUD_FEDERATION_HH

#include <memory>
#include <vector>

#include "cloud/cloud_director.hh"
#include "sim/sharded_simulator.hh"

namespace vcp {

/** How deploys are routed to shards. */
enum class ShardRouting
{
    RoundRobin,
    LeastLoaded, ///< fewest live tenant VMs
};

const char *shardRoutingName(ShardRouting r);

/** Sizing of one federation shard. */
struct FederationConfig
{
    int shards = 2;
    int hosts_per_shard = 8;
    HostConfig host;
    int datastores_per_shard = 2;
    DatastoreConfig datastore;
    NetworkConfig network;
    ManagementServerConfig server;
    CloudDirectorConfig director;
    ShardRouting routing = ShardRouting::LeastLoaded;

    /**
     * Optional sharded engine (sim/sharded_simulator.hh).  When set,
     * federation shard s binds its whole stack — inventory, network,
     * server, agents, datastore slots, director — to execution shard
     * s % engine->numShards(), and the Simulator passed to the
     * constructor is ignored for shard construction.  Because the
     * shards share nothing, every execution shard is closed and the
     * engine may run Threaded: each runUntil() forks one worker per
     * execution shard and joins them.  Each federation shard then
     * records into its own StatRegistry (see shardStats()) so
     * counters never race.  Nothing in a federation may post()
     * across shards.
     */
    ShardedSimulator *engine = nullptr;
};

/** K share-nothing management domains behind one deploy front door. */
class CloudFederation
{
  public:
    /**
     * Build the shards.  Tenants and templates must then be
     * registered with addTenant()/createTemplate(), which mirror
     * them into every shard.
     */
    CloudFederation(Simulator &sim, StatRegistry &stats,
                    const FederationConfig &cfg);

    CloudFederation(const CloudFederation &) = delete;
    CloudFederation &operator=(const CloudFederation &) = delete;

    /** Mirror a tenant into every shard. @return per-federation id
     *  (index into the mirrored tenant list). */
    std::size_t addTenant(const TenantConfig &cfg);

    /** Mirror a golden-master template into every shard. */
    std::size_t createTemplate(const std::string &name,
                               Bytes disk_capacity,
                               double fill_fraction, int vcpus,
                               Bytes memory, int vm_count,
                               SimDuration lease);

    /**
     * Route a deploy to a shard per the routing policy.
     * @param tenant_index / @param template_index are federation-
     *        level indices from addTenant()/createTemplate().
     * @return the shard index it was routed to, or -1 if rejected.
     */
    int deploy(std::size_t tenant_index, std::size_t template_index,
               DeployCallback cb = {});

    std::size_t numShards() const { return shards.size(); }
    CloudDirector &shard(std::size_t i) { return *shards[i]->director; }
    ManagementServer &shardServer(std::size_t i)
    {
        return *shards[i]->server;
    }

    /** The registry shard @p i records into: its private one when an
     *  engine is attached, else the shared constructor registry. */
    StatRegistry &shardStats(std::size_t i);

    /** @{ Federation-wide aggregates. */
    std::uint64_t deploysRouted() const { return routed; }
    std::uint64_t vmsProvisioned() const;
    std::uint64_t opsCompleted() const;
    /** @} */

  private:
    struct Shard
    {
        /** Private registry when an engine is attached (worker
         *  threads must not share counter storage). */
        std::unique_ptr<StatRegistry> own_stats;
        std::unique_ptr<Inventory> inventory;
        std::unique_ptr<Network> network;
        std::unique_ptr<ManagementServer> server;
        std::unique_ptr<CloudDirector> director;
        std::vector<TenantId> tenants;
        std::vector<TemplateId> templates;

        /** VMs of deploys routed here but not yet terminal — the
         *  least-loaded policy must see in-flight work or a burst
         *  all lands on one shard. */
        int pending_vms = 0;
    };

    /** Pick the target shard for the next deploy. */
    std::size_t pickShard();

    Simulator &sim;
    StatRegistry &stats;
    FederationConfig cfg;
    std::vector<std::unique_ptr<Shard>> shards;
    std::size_t rr_cursor = 0;
    std::uint64_t routed = 0;
    Counter *routed_stat = nullptr; ///< resolve-once stat handle
    std::size_t tenant_count = 0;
    std::size_t template_count = 0;
};

} // namespace vcp

#endif // VCP_CLOUD_FEDERATION_HH

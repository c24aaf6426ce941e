/**
 * @file
 * Storage rebalancer (Storage-DRS role): keeps datastore space
 * utilization balanced by relocating powered-off flat-disk VMs from
 * the fullest datastore to the emptiest.
 *
 * Like base-disk pool reseeding, rebalancing was an occasional
 * operator chore in static datacenters; linked-clone churn
 * concentrates allocations (deltas land where their base lives) and
 * turns it into recurring management work — one more instance of the
 * paper's "previously infrequent operations".
 */

#ifndef VCP_CLOUD_STORAGE_REBALANCER_HH
#define VCP_CLOUD_STORAGE_REBALANCER_HH

#include <cstdint>
#include <functional>

#include "controlplane/management_server.hh"

namespace vcp {

/** Rebalancing policy knobs. */
struct RebalanceConfig
{
    /**
     * Trigger when (max - min) datastore space utilization exceeds
     * this fraction.
     */
    double imbalance_threshold = 0.15;

    /** Relocations issued per scan at most. */
    int max_moves_per_scan = 2;

    /** Scan period for the periodic mode. */
    SimDuration period = minutes(30);
};

/** Periodic (or on-demand) datastore space rebalancer. */
class StorageRebalancer
{
  public:
    StorageRebalancer(ManagementServer &server,
                      const RebalanceConfig &cfg = {});

    StorageRebalancer(const StorageRebalancer &) = delete;
    StorageRebalancer &operator=(const StorageRebalancer &) = delete;

    /**
     * One scan: if the utilization spread exceeds the threshold,
     * relocate eligible VMs (powered off, flat leaf disks,
     * registered) from the fullest to the emptiest datastore.
     * @p done (optional) receives the number of relocations issued.
     */
    void runOnce(std::function<void(int)> done = {});

    /**
     * Begin periodic scanning.  NOTE: re-arms indefinitely — drive
     * the simulation with runUntil().
     */
    void start();

    /** Stop periodic scanning. */
    void stop() { running = false; }

    /** Current (max - min) datastore utilization spread. */
    double utilizationSpread() const;

    /** @{ Lifetime counters. */
    std::uint64_t scans() const { return scan_count; }
    std::uint64_t movesIssued() const { return moves_issued; }
    std::uint64_t movesSucceeded() const { return moves_ok; }
    Bytes bytesRebalanced() const { return bytes_moved; }
    /** @} */

    const RebalanceConfig &config() const { return cfg; }

    /** Shard the scan events execute on (the server's shard). */
    ShardId shard() const { return srv.simulator().shardId(); }

  private:
    /** True if this VM can be relocated right now. */
    bool eligible(const Vm &vm) const;

    void scheduleNext();

    /** Record a "rebalance.pass" span for a pass started at
     *  @p started, once all its relocations have completed. */
    void tracePassDone(SimTime started);

    ManagementServer &srv;
    Inventory &inv;
    StatRegistry &stats;
    RebalanceConfig cfg;
    bool running = false;
    std::uint64_t scan_count = 0;
    std::uint64_t moves_issued = 0;
    std::uint64_t moves_ok = 0;
    Bytes bytes_moved = 0;

    /** @{ Resolve-once stat handles. */
    Counter *scans_stat = nullptr;
    Counter *moves_issued_stat = nullptr;
    Counter *moves_ok_stat = nullptr;
    /** @} */

    /** Tracer whose "rebalance.pass" name is interned (lazy). */
    SpanTracer *bound_tracer = nullptr;
    std::uint16_t pass_name = 0;
};

} // namespace vcp

#endif // VCP_CLOUD_STORAGE_REBALANCER_HH

/**
 * @file
 * Entity lock manager.
 *
 * Management operations serialize on inventory entities: two clones
 * from the same template share a read lock on it, but a destroy needs
 * the VM exclusively, and everything that changes a host's placement
 * takes the host lock.  Lock waits are a real component of control-
 * plane latency under provisioning storms, so acquisition is
 * asynchronous and waiting time is measured.
 *
 * Deadlock is avoided structurally: multi-entity acquisitions sort
 * their keys into a canonical order before acquiring one at a time.
 */

#ifndef VCP_CONTROLPLANE_LOCK_MANAGER_HH
#define VCP_CONTROLPLANE_LOCK_MANAGER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "infra/ids.hh"
#include "sim/inline_action.hh"
#include "sim/simulator.hh"
#include "sim/summary.hh"

namespace vcp {

class LatencyHistogram;
class SpanTracer;
class TelemetryRegistry;
class WindowedCounter;

/** Lock compatibility modes. */
enum class LockMode
{
    Shared,
    Exclusive,
};

/** What kind of entity a lock key names. */
enum class LockKind : std::uint8_t
{
    Vm,
    Host,
    Datastore,
    Disk,
    Global,
};

/** Identity of one lockable entity. */
struct LockKey
{
    LockKind kind = LockKind::Global;
    std::int64_t id = 0;

    bool operator==(const LockKey &) const = default;
    auto operator<=>(const LockKey &) const = default;
};

/** @{ LockKey constructors. */
inline LockKey
lockKey(VmId v)
{
    return {LockKind::Vm, v.value};
}

inline LockKey
lockKey(HostId h)
{
    return {LockKind::Host, h.value};
}

inline LockKey
lockKey(DatastoreId d)
{
    return {LockKind::Datastore, d.value};
}

inline LockKey
lockKey(DiskId d)
{
    return {LockKind::Disk, d.value};
}
/** @} */

/** One lock to take, with its mode. */
struct LockRequest
{
    LockKey key;
    LockMode mode = LockMode::Exclusive;
};

/** Asynchronous multi-granularity lock manager. */
class LockManager
{
  public:
    explicit LockManager(Simulator &sim);

    LockManager(const LockManager &) = delete;
    LockManager &operator=(const LockManager &) = delete;

    /**
     * Acquire all requested locks, then call @p granted.  Requests
     * are sorted canonically and acquired one at a time, so
     * concurrent multi-lock acquisitions cannot deadlock.
     */
    void acquireAll(std::vector<LockRequest> requests,
                    InlineAction granted);

    /** Release locks previously granted through acquireAll. */
    void releaseAll(const std::vector<LockRequest> &requests);

    /** Holders (shared count or 1 for exclusive) on a key. */
    int holders(const LockKey &key) const;

    /** Waiters queued on a key. */
    std::size_t waiters(const LockKey &key) const;

    /** Distribution of full-acquisition waiting times (usec). */
    const SummaryStats &waitTimes() const { return wait_stats; }

    /** Total acquireAll calls granted so far. */
    std::uint64_t grants() const { return grant_count; }

    /** Attach a span tracer: contended acquisitions (wait > 0) then
     *  record a "lock.wait" span.  Pass nullptr to detach. */
    void setTracer(SpanTracer *t);

    /** Attach streaming telemetry: grants feed the "locks.grant" /
     *  "locks.contended" counters and contended waits feed the
     *  "locks.wait_us" histogram.  Pass nullptr to detach. */
    void setTelemetry(TelemetryRegistry *reg);

    /** Distinct keys currently locked (telemetry gauge probe). */
    std::size_t lockedKeys() const { return table.size(); }

    /** Shard the grant events execute on. */
    ShardId shard() const { return sim.shardId(); }

  private:
    struct Waiter
    {
        LockMode mode;
        InlineAction granted;
    };

    struct Entry
    {
        int shared_holders = 0;
        bool exclusive_held = false;
        std::deque<Waiter> queue;
    };

    /** True if @p mode can be granted on @p e right now. */
    static bool compatible(const Entry &e, LockMode mode);

    /** Acquire one key (FIFO fairness), then continue. */
    void acquireOne(const LockKey &key, LockMode mode,
                    InlineAction granted);

    struct AcquireCtx;

    /** Acquire the next key of a multi-lock request, or complete. */
    void acquireStep(const std::shared_ptr<AcquireCtx> &ctx);

    /** Release one key and wake compatible waiters in order. */
    void releaseOne(const LockKey &key, LockMode mode);

    Simulator &sim;
    std::map<LockKey, Entry> table;
    SummaryStats wait_stats;
    std::uint64_t grant_count = 0;
    SpanTracer *tracer = nullptr;
    std::uint16_t wait_name = 0;
    TelemetryRegistry *telem = nullptr;
    WindowedCounter *t_grant = nullptr;
    WindowedCounter *t_contended = nullptr;
    LatencyHistogram *t_wait = nullptr;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_LOCK_MANAGER_HH

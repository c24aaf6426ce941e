/**
 * @file
 * Host-agent (hostd) model.
 *
 * Each hypervisor host runs a management agent that executes
 * operations on behalf of the server.  The agent admits a small fixed
 * number of concurrent operations; a slot is held for the whole
 * host-side duration of an op, *including* any bulk data copy it
 * drives — exactly the behaviour that made per-host op limits a
 * first-order throughput bound in production control planes.
 *
 * The agent is disconnect-aware: while dark (the management server
 * lost its session, distinct from a host *crash*) the host-side work
 * still runs — the hypervisor does not stop because vCenter cannot
 * reach it — but its completion cannot be reported back.  Completions
 * that land on a disconnected agent therefore *park* instead of
 * resuming the server-side pipeline, and the reconciliation pass the
 * server runs on reconnect drains them in arrival order.
 */

#ifndef VCP_CONTROLPLANE_HOST_AGENT_HH
#define VCP_CONTROLPLANE_HOST_AGENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "infra/ids.hh"
#include "sim/service_center.hh"
#include "sim/simulator.hh"

namespace vcp {

/** Sizing of a host agent. */
struct HostAgentConfig
{
    /** Concurrent operations the agent admits. */
    int op_slots = 4;
};

/** The management agent on one host. */
class HostAgent
{
  public:
    HostAgent(Simulator &sim, HostId host, const HostAgentConfig &cfg);

    HostAgent(const HostAgent &) = delete;
    HostAgent &operator=(const HostAgent &) = delete;

    HostId host() const { return host_id; }

    /** Shard this agent's op-slot events execute on (set by the
     *  kernel it was constructed with). */
    ShardId shard() const { return slots.shard(); }

    /**
     * Acquire an op slot; @p granted fires when one is free.
     * The caller must call release() when the op's host-side work
     * (execution plus any data copy it drives) is done.
     */
    void acquireSlot(InlineAction granted) {
        slots.acquire(std::move(granted));
    }

    /** Return a slot taken with acquireSlot. */
    void release() { slots.release(); }

    /**
     * Convenience: run a host-side op of known duration in one shot
     * (acquire, execute, release, done).  The completion routes
     * through a pooled flight record so it can park when the agent
     * is disconnected at completion time.
     */
    void execute(SimDuration service_time, InlineAction done);

    /** @{ Connection state.  A disconnected agent keeps executing
     *  (the hypervisor is alive), but completions park until the
     *  server reconciles after reconnect. */
    bool connected() const { return connected_; }
    void setConnected(bool c) { connected_ = c; }
    /** @} */

    /**
     * Park @p resume if the agent is currently dark.
     * @return true when parked (the caller must not continue); false
     *         when connected (nothing happened, caller proceeds).
     */
    bool parkIfDisconnected(InlineAction resume);

    /** Completions currently parked awaiting reconciliation. */
    std::size_t parkedOps() const { return parked.size(); }

    /**
     * Run every parked completion in park (FIFO) order.  The queue is
     * detached first, so a resumed continuation that finds the agent
     * dark again re-parks onto a fresh queue.
     * @return number of completions resumed.
     */
    std::size_t resumeParked();

    /** Underlying queueing station. */
    ServiceCenter &center() { return slots; }
    const ServiceCenter &center() const { return slots; }

  private:
    /** Park @p done in the flight pool; @return its index. */
    std::uint32_t allocFlight(InlineAction done);

    /** Completion of flight @p idx: run it, or park it while dark. */
    void flightDone(std::uint32_t idx);

    HostId host_id;
    ServiceCenter slots;
    bool connected_ = true;

    /** In-flight completions, recycled by index (no allocation per
     *  op); parked holds indices awaiting reconciliation. */
    std::vector<InlineAction> flights;
    std::vector<std::uint32_t> free_flights;
    std::vector<std::uint32_t> parked;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_HOST_AGENT_HH

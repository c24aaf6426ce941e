/**
 * @file
 * A c-server FIFO service center.
 *
 * The building block for every serialized resource in the control
 * plane: database connections, host-agent op slots, the management
 * server's dispatch width.  Two usage styles:
 *
 *  - submit(service_time, done): classic queued job.
 *  - acquire(granted) / release(): hold a server token across an
 *    asynchronous operation (e.g.\ a host-agent slot held while a
 *    multi-minute disk copy proceeds on the datastore pipe).
 *
 * Waiting time and utilization statistics are tracked, which lets the
 * validation bench compare against analytic M/M/c results.
 */

#ifndef VCP_SIM_SERVICE_CENTER_HH
#define VCP_SIM_SERVICE_CENTER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/inline_action.hh"

#include "sim/simulator.hh"
#include "sim/types.hh"
#include "sim/summary.hh"
#include "trace/ring.hh"

namespace vcp {

/** FIFO queueing station with a fixed number of servers. */
class ServiceCenter
{
  public:
    /**
     * @param sim event kernel.
     * @param name diagnostics label.
     * @param servers number of parallel servers (>= 1).
     */
    ServiceCenter(Simulator &sim, std::string name, int servers);

    ServiceCenter(const ServiceCenter &) = delete;
    ServiceCenter &operator=(const ServiceCenter &) = delete;

    /**
     * Enqueue a job with a known service time; @p done fires when it
     * completes and its server is freed automatically.
     */
    void submit(SimDuration service_time, InlineAction done);

    /**
     * Request a server token; @p granted fires (possibly immediately)
     * once one is available.  The caller must call release() when the
     * held work is finished.
     */
    void acquire(InlineAction granted);

    /** Return a token obtained through acquire(). */
    void release();

    /** Jobs waiting for a server. */
    std::size_t queueLength() const { return waiting.size(); }

    /** Servers currently held or executing. */
    int busyServers() const { return busy; }

    int servers() const { return num_servers; }
    const std::string &name() const { return label; }

    /** Shard of the kernel this center's events execute on. */
    ShardId shard() const { return sim.shardId(); }

    /** Completed submit() jobs plus released acquire() tokens. */
    std::uint64_t completed() const { return done_count; }

    /** Aggregate server-busy time (for utilization). */
    SimDuration totalBusyTime() const;

    /**
     * Mean utilization over the lifetime so far: busy server-time
     * divided by (elapsed * servers).
     */
    double utilization() const;

    /** Distribution of time spent waiting in queue (microseconds). */
    const SummaryStats &waitTimes() const { return wait_stats; }

    /**
     * Attach a span ring: each submit() job then records one
     * execution span [dispatch, dispatch + service] under @p name_id
     * while tracing is enabled.  Both endpoints are known at dispatch
     * time, so nothing extra is stored per job.  Pass nullptr to
     * detach.
     */
    void
    setTrace(TraceRing *ring, std::uint16_t name_id)
    {
        trace_ring = ring;
        trace_name = name_id;
    }

  private:
    struct Pending
    {
        SimTime enqueued = 0;

        /** Queued submit() jobs carry their service time; acquire()
         *  waiters use the -1 sentinel. */
        SimDuration service = -1;

        /** The job's completion (submit) or the grant (acquire). */
        InlineAction start;

        bool isJob() const { return service >= 0; }
    };

    /** Grant servers to waiters while any are free. */
    void drain();

    /** Internal: mark one server busy. */
    void occupy();

    /** Internal: mark one server free and drain the queue. */
    void vacate();

    /**
     * Park @p done in the in-flight pool and schedule the job's
     * completion event.  The event captures only {this, index}, so a
     * submit() never re-wraps the caller's action — the flat path
     * DESIGN.md's "Model performance" section describes.
     */
    void scheduleCompletion(SimDuration service_time,
                            InlineAction done);

    /** Completion event body: free the server, run the done action. */
    void completeJob(std::uint32_t idx);

    Simulator &sim;
    std::string label;
    int num_servers;
    int busy = 0;
    std::deque<Pending> waiting;
    std::uint64_t done_count = 0;
    SimTime created_at = 0;
    SimDuration busy_accum = 0;
    SimTime last_busy_change = 0;
    SummaryStats wait_stats;

    /** Completion actions of executing jobs, recycled by index. */
    std::vector<InlineAction> in_flight;
    std::vector<std::uint32_t> free_flights;

    TraceRing *trace_ring = nullptr;
    std::uint16_t trace_name = 0;
};

} // namespace vcp

#endif // VCP_SIM_SERVICE_CENTER_HH

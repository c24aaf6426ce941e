/**
 * @file
 * Task dispatch scheduler.
 *
 * The management server runs at most dispatch_width operations at a
 * time; everything else waits here.  Which waiter dispatches next is
 * the scheduling policy — FIFO (classic), fair-share across tenants
 * (self-service clouds), or strict priority.  The policy is one of
 * the design choices the paper says cloud provisioning rates force
 * operators to revisit, so it is a first-class ablation axis (F8).
 */

#ifndef VCP_CONTROLPLANE_SCHEDULER_HH
#define VCP_CONTROLPLANE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "controlplane/task.hh"
#include "infra/ids.hh"
#include "sim/inline_action.hh"
#include "sim/simulator.hh"
#include "sim/summary.hh"

namespace vcp {

class LatencyHistogram;
class SpanTracer;
class TelemetryRegistry;
class WindowedCounter;

/** Dispatch-ordering policies. */
enum class SchedPolicy
{
    Fifo,
    FairShare, ///< round-robin across tenants, FIFO within a tenant
    Priority,  ///< lowest OpRequest::priority first, FIFO within
};

const char *schedPolicyName(SchedPolicy p);

/** Bounded-width dispatcher with pluggable ordering. */
class TaskScheduler
{
  public:
    /**
     * @param sim event kernel (timestamps).
     * @param policy dispatch ordering.
     * @param dispatch_width max concurrently running tasks (>= 1).
     */
    TaskScheduler(Simulator &sim, SchedPolicy policy, int dispatch_width);

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    /**
     * Queue a task; @p run fires when it is dispatched.  The caller
     * must call onTaskDone() exactly once when the task finishes,
     * and must keep @p task alive until dispatch (queue-phase time is
     * charged to it then).
     */
    void enqueue(Task *task, InlineAction run);

    /** Signal a dispatched task finished, freeing its slot. */
    void onTaskDone();

    std::size_t queueLength() const { return queued; }
    int inFlight() const { return running; }
    SchedPolicy policy() const { return sched_policy; }

    /** Queue-wait distribution in microseconds. */
    const SummaryStats &queueWaits() const { return wait_stats; }

    /** Tasks dispatched so far. */
    std::uint64_t dispatched() const { return dispatch_count; }

    /** Attach a span tracer: dispatch then records each task's
     *  Queue-phase span.  Pass nullptr to detach. */
    void setTracer(SpanTracer *t) { tracer = t; }

    /** Attach streaming telemetry: each dispatch then feeds the
     *  "sched.dispatch" counter and "sched.wait_us" histogram.
     *  Pass nullptr to detach. */
    void setTelemetry(TelemetryRegistry *reg);

    /**
     * Mean occupancy of the dispatch slots over the lifetime so far
     * (time-weighted running tasks / width).
     */
    double utilization() const;

  private:
    struct Waiting
    {
        Task *task = nullptr;
        InlineAction run;
        SimTime enqueued = 0;
        std::uint64_t seq = 0;
    };

    /** Dispatch while slots and waiters remain. */
    void drain();

    /** Remove and return the next waiter per policy. */
    Waiting pickNext();

    /** Fold running x elapsed into busy_accum at a state change. */
    void noteOccupancyChange();

    Simulator &sim;
    SchedPolicy sched_policy;
    int width;
    int running = 0;
    SimTime created_at = 0;
    SimTime last_change = 0;
    double busy_accum = 0.0;
    std::size_t queued = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t dispatch_count = 0;

    /** FIFO / Priority backing store: key is (priority, seq) for
     *  Priority, (0, seq) for Fifo. */
    std::map<std::pair<int, std::uint64_t>, Waiting> ordered;

    /** FairShare backing store: per-tenant FIFO + RR cursor. */
    std::map<TenantId, std::deque<Waiting>> per_tenant;
    TenantId rr_cursor;

    SummaryStats wait_stats;
    SpanTracer *tracer = nullptr;
    TelemetryRegistry *telem = nullptr;
    WindowedCounter *t_dispatch = nullptr;
    LatencyHistogram *t_wait = nullptr;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_SCHEDULER_HH

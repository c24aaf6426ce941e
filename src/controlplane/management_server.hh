/**
 * @file
 * The management server: the control plane's front door and task
 * execution pipeline.
 *
 * Every operation flows through the same stations:
 *
 *   submit -> [api threads] -> [dispatch queue] -> [entity locks]
 *          -> [inventory DB txns] -> [host agent +/- data copy]
 *          -> [finalize DB txns] -> complete
 *
 * Each station is a bounded resource, so the pipeline exhibits the
 * queueing behaviour the paper characterizes: once provisioning no
 * longer pays a data-copy cost (linked clones), throughput is capped
 * by dispatch width, DB connections, host-agent slots, and lock
 * serialization — the management control plane itself.
 */

#ifndef VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH
#define VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH

#include <array>
#include <memory>
#include <vector>

#include "controlplane/cost_model.hh"
#include "controlplane/database.hh"
#include "controlplane/host_agent.hh"
#include "controlplane/lock_manager.hh"
#include "controlplane/op_types.hh"
#include "controlplane/rate_limiter.hh"
#include "controlplane/scheduler.hh"
#include "controlplane/task.hh"
#include "infra/arena.hh"
#include "infra/inventory.hh"
#include "infra/network.hh"
#include "sim/service_center.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"

namespace vcp {

class SpanTracer;
class TelemetryRegistry;

/** Sizing and policy of the management server. */
struct ManagementServerConfig
{
    /** Front-door request-processing threads. */
    int api_threads = 8;

    /** Maximum concurrently executing tasks. */
    int dispatch_width = 32;

    /** Dispatch ordering policy. */
    SchedPolicy policy = SchedPolicy::Fifo;

    /** Database connection pool. */
    DatabaseConfig db;

    /** Per-host agent sizing. */
    HostAgentConfig agent;

    /** Concurrent provisioning/data ops allowed per datastore. */
    int datastore_slots = 8;

    /** Operation cost parameters. */
    CostModelConfig costs;

    /** Per-tenant API admission control. */
    RateLimitConfig rate_limit;

    /**
     * Background database load (statistics rollups, event purges):
     * every @c background_db_period the server runs
     * @c background_db_txns transactions through the same connection
     * pool operations use.  0 period disables it.  NOTE: when
     * enabled, the recurring event keeps the event set non-empty —
     * drive such simulations with runUntil(), not run().
     */
    SimDuration background_db_period = 0;
    int background_db_txns = 50;

    /**
     * Reconciliation cost after a host-agent reconnect: the resync
     * runs @c reconcile_base_txns database transactions plus
     * @c reconcile_txns_per_vm per resident VM before parked
     * completions resume — the same inventory-size-coupled pattern
     * that makes AddHost expensive.
     */
    int reconcile_base_txns = 8;
    int reconcile_txns_per_vm = 2;

    /** Keep finished Task records for inspection (tests want this;
     *  long-running benches may turn it off to bound memory). */
    bool retain_finished_tasks = true;

    /**
     * Intra-run sharded engine.  With an engine of K > 1 shards, the
     * agent of host slot i and the slot center of datastore slot i
     * bind to shard 1 + i % (K - 1), while the server core (API,
     * scheduler, locks, DB, limiter) stays on the kernel the server
     * was constructed with — the serialized control shard.  A null
     * engine (or K == 1) binds everything to that kernel, the classic
     * single-kernel layout.
     */
    ShardedSimulator *engine = nullptr;
};

/** The vCenter-class management server model. */
class ManagementServer
{
  public:
    ManagementServer(Simulator &sim, Inventory &inventory,
                     Network &network, StatRegistry &stats,
                     const ManagementServerConfig &cfg = {});
    ~ManagementServer();

    ManagementServer(const ManagementServer &) = delete;
    ManagementServer &operator=(const ManagementServer &) = delete;

    /**
     * Submit an operation.  @p on_done fires when the task finishes
     * (successfully or not), receiving the final Task record.  A
     * rate-limited request still produces a (failed) task so the
     * rejection is observable.
     * @return the new task's id.
     */
    TaskId submit(const OpRequest &req, TaskCallback on_done = {});

    /**
     * Request cancellation of a task.  Best effort: honored if the
     * task has not yet dispatched (it then fails with
     * TaskError::Cancelled); a running task completes normally.
     * @return true if the request was registered.
     */
    bool cancel(TaskId id);

    /** @{ Task lookup (only finished tasks may have been purged). */
    bool hasTask(TaskId id) const { return tasks.has(id); }
    const Task &task(TaskId id) const { return tasks.get(id); }
    /** @} */

    /** @{ Component access for tests, benches, and the cloud layer. */
    TaskScheduler &scheduler() { return sched; }
    InventoryDatabase &database() { return db; }
    LockManager &lockManager() { return locks; }
    OpCostModel &costModel() { return costs; }
    ServiceCenter &apiCenter() { return api; }
    HostAgent &hostAgent(HostId h);
    ServiceCenter &datastoreSlots(DatastoreId d);
    Inventory &inventory() { return inv; }
    Network &network() { return net; }
    Simulator &simulator() { return sim; }
    StatRegistry &statRegistry() { return stats; }
    const ManagementServerConfig &config() const { return cfg; }
    /** @} */

    /** @{ Aggregate counters. */
    std::uint64_t opsSubmitted() const { return submitted_ops; }
    std::uint64_t opsCompleted() const { return completed_ops; }
    std::uint64_t opsFailed() const { return failed_ops; }

    /** Bulk bytes moved by all data-plane phases so far. */
    Bytes bytesMoved() const { return bytes_moved; }
    /** @} */

    /**
     * Mark host @p h's management agent as disconnected (the session
     * dropped; the host itself keeps running, unlike a crash).  The
     * host is disconnected in the inventory too, so submissions are
     * rejected up front, and in-flight host-side completions park on
     * the agent until reconcileHost() runs.  No-op when the host or
     * agent is already disconnected.
     */
    void disconnectHost(HostId h);

    /**
     * Reconnect host @p h's agent and run the reconciliation pass:
     * a DB resync sized by the host's resident-VM count, a residency
     * audit repairing stale VM->host bindings, then every parked
     * completion resumes in park order.  @p done (optional) fires
     * when the pass completes.  No-op (runs @p done immediately) when
     * the agent is not disconnected.
     */
    void reconcileHost(HostId h, InlineAction done = {});

    /** @{ Disconnect/reconciliation lifetime counters. */
    std::uint64_t agentDisconnects() const { return agent_disconnects; }
    std::uint64_t reconciles() const { return reconcile_runs; }
    std::uint64_t reconcileOpsResumed() const
    {
        return reconcile_resumed;
    }
    /** @} */

    /** End-to-end latency histogram for one op type (microseconds). */
    Histogram &latencyHistogram(OpType t);

    /**
     * Observer invoked with every finished task (before the task's
     * own callback) — the hook the trace recorder uses.
     */
    void setTaskObserver(TaskCallback observer)
    {
        task_observer = std::move(observer);
    }

    /**
     * Attach the op-lifecycle span tracer.  Registers the op/phase/
     * error axes on @p t, interns the agent sub-span names, and
     * propagates the tracer to the scheduler, lock manager, database,
     * and API center.  Pass nullptr to detach.  Recording is further
     * gated on the tracer's runtime switch; with the switch off every
     * site costs one predictable branch.
     */
    void attachTracer(SpanTracer *t);

    /** The attached tracer, or nullptr. */
    SpanTracer *tracer() const { return tracer_; }

    /**
     * Attach the streaming-telemetry registry.  Creates the server's
     * own instruments ("cp.op" counter, "cp.op_failed" counter,
     * "cp.op_us" end-to-end latency histogram) and propagates the
     * registry to the scheduler, lock manager, and database.  Pass
     * nullptr to detach; every push site then costs one branch.
     */
    void attachTelemetry(TelemetryRegistry *reg);

    /** The attached telemetry registry, or nullptr. */
    TelemetryRegistry *telemetry() const { return telem_; }

    /**
     * @{ Aggregates over the per-host agents — the telemetry gauge
     * probes poll these so the export stays O(instruments) instead
     * of O(hosts).
     */
    int agentSlotsBusy() const;
    std::size_t agentQueueLength() const;
    /** @} */

    /** Mean and busiest utilization across a set of entities. */
    struct UtilSpread
    {
        double mean = 0.0;
        double max = 0.0;
    };

    /**
     * @{ Utilization of each bounded per-entity and fabric resource,
     * each formula written once: the telemetry util probes and
     * analysis/bottleneck both read these.  Reading creates nothing —
     * a host or datastore whose agent or slot center was never used
     * counts as 0 — and the spreads cover every inventory host or
     * datastore, so the means do not move when a center is created.
     */
    double agentUtilization(HostId h) const;
    UtilSpread agentUtilization() const;
    UtilSpread datastoreSlotUtilization() const;
    /** Copy pipes: busy time over elapsed time (data plane). */
    UtilSpread datastorePipeUtilization() const;
    /** The busiest fabric link's busy fraction (data plane). */
    double fabricUtilization() const;
    /** @} */

  private:
    struct OpCtx;

    /**
     * Contexts are owned by a pool on the server and passed around as
     * raw pointers: one operation has at most one pending callback at
     * a time and finish() is terminal, so the pointer cannot outlive
     * its slot.
     */
    using CtxPtr = OpCtx *;

    /**
     * The points where the phase driver hands control to an op type,
     * in pipeline order.  What each stage may do:
     *
     *  - Precheck:   validate the request against the inventory, fill
     *                OpCtx::pending_locks, and record the entity ids
     *                later stages need.  Must not touch the
     *                inventory.
     *  - AfterLocks: the locks are held.  Re-validate (the inventory
     *                may have changed while the task waited), then
     *                commit host resources or reserve datastore space
     *                and record them in the context.
     *  - AfterDb:    the Db transactions committed.  Create the op's
     *                provisional records (listed in the context) and
     *                describe the host step.
     *  - AfterHost:  the host step finished.  Apply the inventory
     *                change and hand provisional state over to the
     *                records that now own it.
     *
     * A hook returns TaskError::None to continue or an error to end
     * the op.  Hooks never release or roll back anything themselves:
     * finish() owns that, driven by what the context records.
     */
    enum class OpStage : std::uint8_t
    {
        Precheck,
        AfterLocks,
        AfterDb,
        AfterHost,
    };

    /** The host-side step between the Db and Finalize phases. */
    enum class HostStep : std::uint8_t
    {
        None,      ///< record-only (a VM registered on no host)
        Agent,     ///< one execution on the host's agent
        AgentData, ///< datastore slot + agent setup + bulk data copy
    };

    /**
     * The phase driver: the one place that knows the phase order.
     * Runs api -> queue -> locks -> Db -> host step -> Finalize, with
     * the op's hooks between the phases; every asynchronous phase
     * re-enters it on completion (documented in the .cc).
     */
    void advance(CtxPtr ctx);

    /** Set ctx's phase in flight and its start time. */
    void startPhase(CtxPtr ctx, TaskPhase phase);

    /** Route one hook call to the op type's hook function. */
    TaskError runHook(CtxPtr ctx, OpStage stage);

    /**
     * @{ Per-op hooks (documented in the .cc).  Each handles the
     * stages its op needs and returns TaskError::None for the rest.
     */
    TaskError powerHooks(CtxPtr ctx, OpStage stage);
    TaskError createVmHooks(CtxPtr ctx, OpStage stage);
    TaskError cloneHooks(CtxPtr ctx, OpStage stage);
    TaskError destroyHooks(CtxPtr ctx, OpStage stage);
    TaskError registerHooks(CtxPtr ctx, OpStage stage);
    TaskError reconfigureHooks(CtxPtr ctx, OpStage stage);
    TaskError snapshotHooks(CtxPtr ctx, OpStage stage);
    TaskError removeSnapshotHooks(CtxPtr ctx, OpStage stage);
    TaskError relocateHooks(CtxPtr ctx, OpStage stage);
    TaskError migrateHooks(CtxPtr ctx, OpStage stage);
    TaskError hostLifecycleHooks(CtxPtr ctx, OpStage stage);
    TaskError replicateBaseDiskHooks(CtxPtr ctx, OpStage stage);
    TaskError consolidateDiskHooks(CtxPtr ctx, OpStage stage);
    /** @} */

    /**
     * @{ The AgentData host step: acquire the datastore slot, then an
     * agent slot, run the host setup, move OpCtx::data_bytes (0 = no
     * copy), release both, and return to the driver.  Same-datastore
     * copies charge the datastore's own pipe; anything else crosses
     * the routed network fabric.
     */
    void dataSlotGranted(CtxPtr ctx);
    void dataAgentGranted(CtxPtr ctx);
    void dataSetupDone(CtxPtr ctx);
    void dataCopyDone(CtxPtr ctx);
    /** Fabric lost the path mid-copy: fail the task. */
    void dataCopyFailed(CtxPtr ctx);
    void releaseDataSlots(CtxPtr ctx);
    /** @} */

    /** Finish the task, releasing everything the ctx still holds. */
    void finish(CtxPtr ctx, TaskError err);

    /**
     * Charge [ctx->phase_start, now] to @p phase and, with an attached
     * and enabled tracer, record it as a span (see DESIGN.md
     * "Observability"; without a tracer this costs one branch).
     */
    void endPhase(CtxPtr ctx, TaskPhase phase);

    /**
     * Split the HostAgent phase just recorded into agent-wait /
     * agent-exec sub-spans: @p service is the execution time sampled
     * at dispatch, so the wait is the remainder — no extra callback
     * wrapping needed.
     */
    void traceAgentSplit(CtxPtr ctx, SimDuration service);

    /** Record the whole-op span of a finished task. */
    void traceOp(const Task &t);

    /** @{ Context pool. */
    OpCtx *allocCtx();
    void releaseCtx(OpCtx *ctx);
    /** @} */

    /** One reconciliation pass in flight (pooled by index). */
    struct ReconcileCtx
    {
        HostId host;
        SimTime started = 0;
        InlineAction done;
    };

    /** DB resync finished: audit residency, resume parked ops. */
    void reconcileResync(std::uint32_t idx);

    Simulator &sim;
    Inventory &inv;
    Network &net;
    StatRegistry &stats;
    ManagementServerConfig cfg;

    OpCostModel costs;
    ServiceCenter api;
    TaskScheduler sched;
    InventoryDatabase db;
    LockManager locks;
    TenantRateLimiter limiter;

    /** Recurring statistics-rollup load on the database. */
    void backgroundDbTick();

    /** Kernel the agent or datastore slot center of slot @p slot
     *  binds to (see ManagementServerConfig::engine). */
    Simulator &slotSim(std::uint32_t slot);

    /**
     * Hosts and datastores are never destroyed, so their arena slots
     * are dense and stable: the per-host agents and per-datastore
     * slot centers live in plain vectors indexed by slot.  Ids built
     * from bare values are normalized to full handles first.
     */
    std::vector<std::unique_ptr<HostAgent>> agents;
    std::vector<std::unique_ptr<ServiceCenter>> ds_slots;

    /** Task records, pooled; finished tasks recycle their slot. */
    SlotArena<Task, TaskId> tasks{"task"};

    /** @{ Context pool backing store. */
    std::vector<std::unique_ptr<OpCtx>> ctx_pool;
    std::vector<OpCtx *> ctx_free;
    /** @} */

    /**
     * Pre-resolved stat handles.  Dotted names are resolved at most
     * once per (op type, stat) and recorded through raw pointers; all
     * caches fill lazily on first use so the set of registered names
     * — and therefore the sorted dump — matches what the string-built
     * lookups used to produce.
     */
    struct OpStatSet
    {
        Counter *total = nullptr;
        Histogram *latency = nullptr;
        std::array<SummaryStats *, kNumTaskPhases> phase{};
    };

    /** Cache for finish()-side per-op stats (fills all fields). */
    OpStatSet &opStats(OpType t);

    /** Cache for one error counter ("cp.errors.<name>"). */
    Counter &errorCounter(TaskError e);

    std::array<OpStatSet, kNumOpTypes> op_stats{};
    std::array<Histogram *, kNumOpTypes> latency_stats{};
    std::array<Counter *, kNumTaskErrors> error_stats{};
    Counter *submitted_stat = nullptr;
    Counter *completed_stat = nullptr;
    Counter *failed_stat = nullptr;
    Counter *bytes_moved_stat = nullptr;
    Counter *bg_txns_stat = nullptr;

    /** @{ Reconciliation state. */
    std::vector<ReconcileCtx> reconcile_ctxs;
    std::vector<std::uint32_t> reconcile_free;
    std::uint64_t agent_disconnects = 0;
    std::uint64_t reconcile_runs = 0;
    std::uint64_t reconcile_resumed = 0;
    Counter *disconnects_stat = nullptr;
    Counter *reconciles_stat = nullptr;
    Counter *resumed_stat = nullptr;
    Counter *residency_fixed_stat = nullptr;
    /** @} */

    TaskCallback task_observer;
    SpanTracer *tracer_ = nullptr;
    TelemetryRegistry *telem_ = nullptr;
    WindowedCounter *t_op = nullptr;
    WindowedCounter *t_op_failed = nullptr;
    LatencyHistogram *t_op_lat = nullptr;
    WindowedCounter *t_disconnects = nullptr;
    WindowedCounter *t_reconcile = nullptr;
    WindowedCounter *t_reconcile_resumed = nullptr;
    LatencyHistogram *t_reconcile_lat = nullptr;
    std::uint16_t sub_agent_wait_ = 0;
    std::uint16_t sub_agent_exec_ = 0;
    std::int64_t next_task_id = 1;
    std::uint64_t submitted_ops = 0;
    std::uint64_t completed_ops = 0;
    std::uint64_t failed_ops = 0;
    Bytes bytes_moved = 0;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH

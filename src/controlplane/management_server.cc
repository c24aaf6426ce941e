#include "controlplane/management_server.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace vcp {

/**
 * Per-task execution context.
 *
 * Tracks which resources the pipeline currently holds so that
 * finish() can release them exactly once on every path — including
 * the failure paths, where provisional inventory records and resource
 * commitments are also rolled back.
 *
 * Rule enforced throughout this file: the op hooks keep entity *ids*
 * in the context, never references; entities are re-fetched (and
 * re-checked) after every asynchronous boundary, because the
 * inventory may have changed while the task waited.
 *
 * Contexts are pooled (allocCtx()/releaseCtx()) and hold everything
 * an op carries from one phase to the next, so each asynchronous hop
 * captures only {this, ctx} and stays inside InlineAction's inline
 * buffer.
 */
struct ManagementServer::OpCtx
{
    Task *task = nullptr;
    TaskCallback cb;

    /** Locks currently held (empty if none). */
    std::vector<LockRequest> held_locks;

    /** Host-agent slot held across an async data copy. */
    HostAgent *held_agent = nullptr;

    /** Per-datastore provisioning slot held. */
    ServiceCenter *held_ds_slot = nullptr;

    /** Host resources committed and not yet owned by a power state. */
    HostId committed_host;
    int committed_vcpus = 0;
    Bytes committed_memory = 0;

    /** Provisional VM records to destroy if the task fails. */
    std::vector<VmId> created_vms;

    /** Raw datastore reservation to undo if the task fails. */
    DatastoreId reserved_ds;
    Bytes reserved_bytes = 0;

    /** @{ Driver state: the phase in flight and when it began. */
    TaskPhase phase = TaskPhase::Api;
    SimTime phase_start = 0;
    SimDuration agent_service = 0;
    /** @} */

    /** @{ Op scratch, written by the hooks. */
    std::vector<LockRequest> pending_locks; ///< set by Precheck
    VmId vm;
    HostId host; ///< whose agent runs the host step
    DiskId disk;
    DiskId parent_disk;
    std::vector<DiskId> disks; ///< Destroy: the disk set it locked
    HostStep host_step = HostStep::None;
    /** @} */

    /**
     * @{ AgentData step: the datastore whose slot the op holds, and
     * what to copy.  With src_host set the copy streams host to host
     * (src_host -> host) over the fabric; otherwise it runs from
     * src_ds to dst_ds, through the datastore's own pipe when the
     * two are the same.
     */
    DatastoreId slot_ds;
    DatastoreId src_ds;
    DatastoreId dst_ds;
    HostId src_host;
    Bytes data_bytes = 0;
    /** @} */

    /** Return to pool-fresh state (vectors keep their capacity). */
    void
    reset()
    {
        task = nullptr;
        cb = nullptr;
        held_locks.clear();
        held_agent = nullptr;
        held_ds_slot = nullptr;
        committed_host = HostId();
        committed_vcpus = 0;
        committed_memory = 0;
        created_vms.clear();
        reserved_ds = DatastoreId();
        reserved_bytes = 0;
        phase = TaskPhase::Api;
        phase_start = 0;
        agent_service = 0;
        pending_locks.clear();
        vm = VmId();
        host = HostId();
        disk = DiskId();
        parent_disk = DiskId();
        disks.clear();
        host_step = HostStep::None;
        slot_ds = DatastoreId();
        src_ds = DatastoreId();
        dst_ds = DatastoreId();
        src_host = HostId();
        data_bytes = 0;
    }
};

ManagementServer::~ManagementServer() = default;

ManagementServer::OpCtx *
ManagementServer::allocCtx()
{
    if (!ctx_free.empty()) {
        OpCtx *ctx = ctx_free.back();
        ctx_free.pop_back();
        return ctx;
    }
    ctx_pool.push_back(std::make_unique<OpCtx>());
    return ctx_pool.back().get();
}

void
ManagementServer::releaseCtx(OpCtx *ctx)
{
    ctx->reset();
    ctx_free.push_back(ctx);
}

ManagementServer::ManagementServer(Simulator &sim_, Inventory &inventory,
                                   Network &network, StatRegistry &stats_,
                                   const ManagementServerConfig &cfg_)
    : sim(sim_), inv(inventory), net(network), stats(stats_), cfg(cfg_),
      costs(cfg_.costs, sim_.rng().fork()),
      api(sim_, "api", cfg_.api_threads),
      sched(sim_, cfg_.policy, cfg_.dispatch_width),
      db(sim_, inventory, costs, cfg_.db),
      locks(sim_),
      limiter(sim_, cfg_.rate_limit)
{
    if (cfg.datastore_slots < 1)
        fatal("ManagementServer: datastore_slots must be >= 1");
    if (cfg.background_db_period > 0) {
        if (cfg.background_db_txns < 1)
            fatal("ManagementServer: background_db_txns must be >= 1");
        sim.schedule(cfg.background_db_period,
                     [this] { backgroundDbTick(); });
    }
}

void
ManagementServer::backgroundDbTick()
{
    if (!bg_txns_stat)
        bg_txns_stat = &stats.counter("cp.db.background_txns");
    db.runTxns(cfg.background_db_txns, [this] {
        bg_txns_stat->inc(
            static_cast<std::uint64_t>(cfg.background_db_txns));
    });
    sim.schedule(cfg.background_db_period,
                 [this] { backgroundDbTick(); });
}

bool
ManagementServer::cancel(TaskId id)
{
    if (!tasks.has(id) || tasks.get(id).finished())
        return false;
    tasks.get(id).requestCancel();
    return true;
}

HostAgent &
ManagementServer::hostAgent(HostId h)
{
    if (!h.hasSlot())
        h = inv.host(h).id();
    if (h.slot >= agents.size())
        agents.resize(h.slot + 1);
    auto &agent = agents[h.slot];
    if (!agent) {
        // Bind the agent to its mapped shard kernel; without an
        // engine this is the server's own kernel.
        Simulator &asim = cfg.shard_plan.simFor(
            cfg.shard_plan.map.hostShard(h.slot), sim);
        agent = std::make_unique<HostAgent>(asim, h, cfg.agent);
    }
    return *agent;
}

ServiceCenter &
ManagementServer::datastoreSlots(DatastoreId d)
{
    if (!d.hasSlot())
        d = inv.datastore(d).id();
    if (d.slot >= ds_slots.size())
        ds_slots.resize(d.slot + 1);
    auto &center = ds_slots[d.slot];
    if (!center) {
        Simulator &dsim = cfg.shard_plan.simFor(
            cfg.shard_plan.map.datastoreShard(d.slot), sim);
        center = std::make_unique<ServiceCenter>(
            dsim, "ds-slots:" + std::to_string(d.value),
            cfg.datastore_slots);
        center->setShardDomain(ShardDomain::Datastore);
    }
    return *center;
}

void
ManagementServer::disconnectHost(HostId h)
{
    if (!inv.hasHost(h))
        panic("ManagementServer::disconnectHost: no such host");
    Host &host = inv.host(h);
    HostAgent &agent = hostAgent(h);
    // A crashed host (disconnected in the inventory but with a live
    // agent record) recovers through the HA path, not this one.
    if (!host.connected() || !agent.connected())
        return;
    host.setConnected(false);
    agent.setConnected(false);
    ++agent_disconnects;
    if (!disconnects_stat)
        disconnects_stat = &stats.counter("agent.disconnects");
    disconnects_stat->inc();
    if (VCP_TELEM_ON(telem_))
        t_disconnects->add(sim.now());
}

void
ManagementServer::reconcileHost(HostId h, InlineAction done)
{
    if (!inv.hasHost(h))
        panic("ManagementServer::reconcileHost: no such host");
    HostAgent &agent = hostAgent(h);
    if (agent.connected()) {
        // Nothing to reconcile: the host was never disconnected, or
        // it crashed — crash recovery goes through HaManager.
        if (done)
            done();
        return;
    }
    agent.setConnected(true);
    inv.host(h).setConnected(true);

    std::uint32_t idx;
    if (!reconcile_free.empty()) {
        idx = reconcile_free.back();
        reconcile_free.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(reconcile_ctxs.size());
        reconcile_ctxs.emplace_back();
    }
    ReconcileCtx &rc = reconcile_ctxs[idx];
    rc.host = h;
    rc.started = sim.now();
    rc.done = std::move(done);

    // The resync reads back the host's view of every resident VM
    // through the same connection pool operations use — the cost
    // grows with the host's population, like AddHost.
    int txns = cfg.reconcile_base_txns +
               cfg.reconcile_txns_per_vm *
                   static_cast<int>(inv.host(h).vms().size());
    db.runTxns(txns, [this, idx] { reconcileResync(idx); });
}

void
ManagementServer::reconcileResync(std::uint32_t idx)
{
    ReconcileCtx &rc = reconcile_ctxs[idx];
    HostId h = rc.host;
    Host &host = inv.host(h);

    // Residency audit: the database inventory is authoritative.  Any
    // VM the host still lists that the DB destroyed or moved while
    // the agent was dark is dropped from the host's registration.
    std::uint64_t fixed = 0;
    std::vector<VmId> stale;
    for (VmId v : host.vms()) {
        if (!inv.hasVm(v) || inv.vm(v).host != h)
            stale.push_back(v);
    }
    for (VmId v : stale) {
        host.unregisterVm(v);
        ++fixed;
    }

    // Parked completions resume only after the resync committed:
    // until the server has re-read the host's state it cannot trust
    // any result the agent reports.
    std::size_t resumed = hostAgent(h).resumeParked();

    ++reconcile_runs;
    reconcile_resumed += resumed;
    reconcile_residency_fixed += fixed;
    if (!reconciles_stat)
        reconciles_stat = &stats.counter("agent.reconciles");
    reconciles_stat->inc();
    if (resumed > 0) {
        if (!resumed_stat)
            resumed_stat = &stats.counter("agent.reconcile_resumed");
        resumed_stat->inc(static_cast<std::uint64_t>(resumed));
    }
    if (fixed > 0) {
        if (!residency_fixed_stat) {
            residency_fixed_stat =
                &stats.counter("agent.reconcile_residency_fixed");
        }
        residency_fixed_stat->inc(fixed);
    }
    if (VCP_TELEM_ON(telem_)) {
        t_reconcile->add(sim.now());
        if (resumed > 0) {
            t_reconcile_resumed->add(
                sim.now(), static_cast<std::uint64_t>(resumed));
        }
        t_reconcile_lat->add(sim.now() - rc.started);
    }

    InlineAction done = std::move(rc.done);
    reconcile_free.push_back(idx);
    if (done)
        done();
}

Histogram &
ManagementServer::latencyHistogram(OpType t)
{
    Histogram *&h = latency_stats[static_cast<std::size_t>(t)];
    if (!h) {
        h = &stats.histogram(
            std::string("cp.latency_us.") + opTypeName(t),
            /*min_value=*/100.0, /*growth=*/1.2);
    }
    return *h;
}

ManagementServer::OpStatSet &
ManagementServer::opStats(OpType t)
{
    OpStatSet &s = op_stats[static_cast<std::size_t>(t)];
    if (!s.total) {
        const char *op_name = opTypeName(t);
        s.total =
            &stats.counter(std::string("cp.ops.") + op_name + ".total");
        s.latency = &latencyHistogram(t);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            s.phase[p] = &stats.summary(
                std::string("cp.phase_us.") + op_name + "." +
                taskPhaseName(static_cast<TaskPhase>(p)));
        }
    }
    return s;
}

Counter &
ManagementServer::errorCounter(TaskError e)
{
    Counter *&c = error_stats[static_cast<std::size_t>(e)];
    if (!c)
        c = &stats.counter(std::string("cp.errors.") + taskErrorName(e));
    return *c;
}

void
ManagementServer::attachTracer(SpanTracer *t)
{
    tracer_ = t;
    sched.setTracer(t);
    locks.setTracer(t);
    db.setTracer(t);
    net.topology().setTracer(t);
    if (!t) {
        api.setTrace(nullptr, 0);
        return;
    }
    std::vector<std::string> op_names, phase_names, error_names;
    op_names.reserve(kNumOpTypes);
    for (std::size_t i = 0; i < kNumOpTypes; ++i)
        op_names.push_back(opTypeName(static_cast<OpType>(i)));
    phase_names.reserve(kNumTaskPhases);
    for (std::size_t i = 0; i < kNumTaskPhases; ++i)
        phase_names.push_back(taskPhaseName(static_cast<TaskPhase>(i)));
    error_names.reserve(kNumTaskErrors);
    for (std::size_t i = 0; i < kNumTaskErrors; ++i)
        error_names.push_back(taskErrorName(static_cast<TaskError>(i)));
    t->setAxes(std::move(op_names), std::move(phase_names),
               std::move(error_names));
    sub_agent_wait_ = t->intern("agent-wait");
    sub_agent_exec_ = t->intern("agent-exec");
    api.setTrace(&t->ring(), t->intern("api.exec"));
}

void
ManagementServer::attachTelemetry(TelemetryRegistry *reg)
{
    telem_ = reg;
    sched.setTelemetry(reg);
    locks.setTelemetry(reg);
    db.setTelemetry(reg);
    if (telem_) {
        int shard = static_cast<int>(sim.shardId());
        t_op = telem_->counter("cp.op", shard);
        t_op_failed = telem_->counter("cp.op_failed", shard);
        t_op_lat = telem_->histogram("cp.op_us", shard);
        t_disconnects = telem_->counter("agent.disconnects", shard);
        t_reconcile = telem_->counter("agent.reconcile.runs", shard);
        t_reconcile_resumed =
            telem_->counter("agent.reconcile.resumed_ops", shard);
        t_reconcile_lat =
            telem_->histogram("agent.reconcile.us", shard);
    }
}

int
ManagementServer::agentSlotsBusy() const
{
    int n = 0;
    for (const auto &a : agents)
        if (a)
            n += a->center().busyServers();
    return n;
}

std::size_t
ManagementServer::agentQueueLength() const
{
    std::size_t n = 0;
    for (const auto &a : agents)
        if (a)
            n += a->center().queueLength();
    return n;
}

double
ManagementServer::agentMeanUtilization() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &a : agents) {
        if (a) {
            sum += a->center().utilization();
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

int
ManagementServer::datastoreSlotsBusy() const
{
    int n = 0;
    for (const auto &d : ds_slots)
        if (d)
            n += d->busyServers();
    return n;
}

std::size_t
ManagementServer::datastoreQueueLength() const
{
    std::size_t n = 0;
    for (const auto &d : ds_slots)
        if (d)
            n += d->queueLength();
    return n;
}

double
ManagementServer::datastoreMeanUtilization() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &d : ds_slots) {
        if (d) {
            sum += d->utilization();
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
ManagementServer::endPhase(CtxPtr ctx, TaskPhase phase)
{
    ctx->task->addPhaseTime(phase, sim.now() - ctx->phase_start);
    if (!VCP_TRACER_ON(tracer_))
        return;
    tracer_->recordPhase(static_cast<std::uint8_t>(ctx->task->type()),
                         static_cast<std::uint8_t>(phase),
                         ctx->task->id().value, ctx->phase_start,
                         sim.now() - ctx->phase_start);
}

void
ManagementServer::traceAgentSplit(CtxPtr ctx, SimDuration service)
{
    if (!VCP_TRACER_ON(tracer_))
        return;
    SimTime end = sim.now();
    SimDuration wait = (end - ctx->phase_start) - service;
    if (wait < 0)
        wait = 0;
    std::int64_t tid = ctx->task->id().value;
    auto op = static_cast<std::uint8_t>(ctx->task->type());
    if (wait > 0) {
        tracer_->ring().push({ctx->phase_start, wait, tid,
                              sub_agent_wait_, SpanKind::Sub, op, {}});
    }
    tracer_->ring().push({end - service, service, tid, sub_agent_exec_,
                          SpanKind::Sub, op, {}});
}

void
ManagementServer::traceOp(const Task &t)
{
    if (!VCP_TRACER_ON(tracer_))
        return;
    tracer_->recordOp(static_cast<std::uint8_t>(t.type()),
                      static_cast<std::uint8_t>(t.error()),
                      t.id().value, t.submittedAt(), t.latency());
}

TaskId
ManagementServer::submit(const OpRequest &req, TaskCallback on_done)
{
    TaskId id =
        tasks.emplace(next_task_id++, [&](void *mem, TaskId tid) {
            new (mem) Task(tid, req);
        });
    Task &t = tasks.get(id);
    t.markSubmitted(sim.now());
    ++submitted_ops;
    if (!submitted_stat)
        submitted_stat = &stats.counter("cp.ops.submitted");
    submitted_stat->inc();

    OpCtx *ctx = allocCtx();
    ctx->task = &t;
    ctx->cb = std::move(on_done);

    // Per-tenant admission control happens before any server
    // resource is consumed.
    if (!limiter.tryAdmit(req.tenant)) {
        // Finish synchronously-on-next-event so callers observe a
        // consistent asynchronous contract.
        sim.schedule(0, [this, ctx]() {
            Task &t = *ctx->task;
            t.markStarted(sim.now());
            t.markFinished(sim.now(), TaskError::RateLimited);
            ++failed_ops;
            if (!failed_stat)
                failed_stat = &stats.counter("cp.ops.failed");
            failed_stat->inc();
            errorCounter(TaskError::RateLimited).inc();
            if (VCP_TELEM_ON(telem_)) {
                t_op->add(sim.now());
                t_op_failed->add(sim.now());
                t_op_lat->add(t.latency());
            }
            traceOp(t);
            if (task_observer)
                task_observer(t);
            TaskCallback cb = std::move(ctx->cb);
            TaskId tid = t.id();
            releaseCtx(ctx);
            if (cb)
                cb(t);
            if (!cfg.retain_finished_tasks)
                tasks.destroy(tid);
        });
        return id;
    }

    startPhase(ctx, TaskPhase::Api);
    api.submit(costs.sampleApi(req.type), [this, ctx]() { advance(ctx); });
    return id;
}

void
ManagementServer::finish(CtxPtr ctx, TaskError err)
{
    // Release held execution resources (order: agent, then slot —
    // the reverse of acquisition).
    if (ctx->held_agent) {
        ctx->held_agent->release();
        ctx->held_agent = nullptr;
    }
    if (ctx->held_ds_slot) {
        ctx->held_ds_slot->release();
        ctx->held_ds_slot = nullptr;
    }

    if (err != TaskError::None) {
        // Roll back provisional state.
        if (ctx->committed_host.valid() && inv.hasHost(ctx->committed_host)) {
            inv.host(ctx->committed_host)
                .release(ctx->committed_vcpus, ctx->committed_memory);
        }
        if (ctx->reserved_ds.valid() && ctx->reserved_bytes > 0)
            inv.datastore(ctx->reserved_ds).release(ctx->reserved_bytes);
        for (VmId v : ctx->created_vms) {
            if (!inv.hasVm(v))
                continue;
            Vm &vm = inv.vm(v);
            if (vm.host.valid()) {
                if (inv.hasHost(vm.host))
                    inv.host(vm.host).unregisterVm(v);
                vm.host = HostId();
            }
            vm.forcePowerState(PowerState::PoweredOff);
            if (!inv.destroyVm(v))
                panic("ManagementServer: rollback destroy failed");
        }
    }
    ctx->committed_host = HostId();
    ctx->reserved_bytes = 0;
    ctx->created_vms.clear();

    if (!ctx->held_locks.empty()) {
        locks.releaseAll(ctx->held_locks);
        ctx->held_locks.clear();
    }

    Task &t = *ctx->task;
    t.markFinished(sim.now(), err);

    if (err == TaskError::None) {
        ++completed_ops;
        if (!completed_stat)
            completed_stat = &stats.counter("cp.ops.completed");
        completed_stat->inc();
    } else {
        ++failed_ops;
        if (!failed_stat)
            failed_stat = &stats.counter("cp.ops.failed");
        failed_stat->inc();
        errorCounter(err).inc();
    }
    OpStatSet &os = opStats(t.type());
    os.total->inc();
    os.latency->add(static_cast<double>(t.latency()));
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        os.phase[p]->add(static_cast<double>(
            t.phaseTime(static_cast<TaskPhase>(p))));
    }
    if (VCP_TELEM_ON(telem_)) {
        t_op->add(sim.now());
        if (err != TaskError::None)
            t_op_failed->add(sim.now());
        t_op_lat->add(t.latency());
    }

    sched.onTaskDone();
    traceOp(t);
    if (task_observer)
        task_observer(t);
    // The context goes back to the pool before the callback runs: the
    // callback routinely submits the tenant's next operation, which
    // may reuse this very slot.  The task record outlives it until
    // after the callback has seen it.
    TaskCallback cb = std::move(ctx->cb);
    TaskId tid = t.id();
    releaseCtx(ctx);
    if (cb)
        cb(t);
    if (!cfg.retain_finished_tasks)
        tasks.destroy(tid);
}

/*
 * The phase driver.  Every operation runs the same sequence:
 *
 *   Api -> Queue -> [Precheck] -> Locks -> [AfterLocks] -> Db
 *       -> [AfterDb] -> host step -> [AfterHost] -> Finalize -> finish
 *
 * ctx->phase names the phase in flight; each asynchronous phase calls
 * back in here when it completes, and this function closes it, runs
 * the op's hook for the stage that follows, and starts the next
 * phase.  A hook that returns an error ends the op: finish() releases
 * whatever the context holds and rolls back its provisional state.
 */
void
ManagementServer::advance(CtxPtr ctx)
{
    Task &task = *ctx->task;
    TaskError err = TaskError::None;
    switch (ctx->phase) {
      case TaskPhase::Api:
        endPhase(ctx, TaskPhase::Api);
        startPhase(ctx, TaskPhase::Queue);
        sched.enqueue(ctx->task, [this, ctx]() { advance(ctx); });
        return;
      case TaskPhase::Queue:
        task.markStarted(sim.now());
        err = task.cancelRequested() ? TaskError::Cancelled
                                     : runHook(ctx, OpStage::Precheck);
        if (err != TaskError::None)
            break;
        startPhase(ctx, TaskPhase::Locks);
        locks.acquireAll(ctx->pending_locks,
                         [this, ctx]() { advance(ctx); });
        return;
      case TaskPhase::Locks:
        ctx->held_locks = std::move(ctx->pending_locks);
        endPhase(ctx, TaskPhase::Locks);
        err = runHook(ctx, OpStage::AfterLocks);
        if (err != TaskError::None)
            break;
        startPhase(ctx, TaskPhase::Db);
        db.runTxns(costs.dbTxns(task.type()),
                   [this, ctx]() { advance(ctx); });
        return;
      case TaskPhase::Db:
        endPhase(ctx, TaskPhase::Db);
        err = runHook(ctx, OpStage::AfterDb);
        if (err != TaskError::None)
            break;
        startPhase(ctx, TaskPhase::HostAgent);
        switch (ctx->host_step) {
          case HostStep::None:
            advance(ctx);
            return;
          case HostStep::Agent:
            ctx->agent_service = costs.sampleHost(task.type());
            hostAgent(ctx->host).execute(ctx->agent_service,
                                         [this, ctx]() {
                endPhase(ctx, TaskPhase::HostAgent);
                traceAgentSplit(ctx, ctx->agent_service);
                advance(ctx);
            });
            return;
          case HostStep::AgentData:
            datastoreSlots(ctx->slot_ds)
                .acquire([this, ctx]() { dataSlotGranted(ctx); });
            return;
        }
        return;
      case TaskPhase::HostAgent:
      case TaskPhase::DataCopy: // the host step finished
        err = runHook(ctx, OpStage::AfterHost);
        if (err != TaskError::None)
            break;
        startPhase(ctx, TaskPhase::Finalize);
        db.runTxns(costs.finalizeTxns(task.type()),
                   [this, ctx]() { advance(ctx); });
        return;
      case TaskPhase::Finalize:
        endPhase(ctx, TaskPhase::Finalize);
        break;
      case TaskPhase::NumPhases:
        panic("ManagementServer: op in no phase");
    }
    finish(ctx, err);
}

void
ManagementServer::startPhase(CtxPtr ctx, TaskPhase phase)
{
    ctx->phase = phase;
    ctx->phase_start = sim.now();
}

void
ManagementServer::dataSlotGranted(CtxPtr ctx)
{
    ctx->held_ds_slot = &datastoreSlots(ctx->slot_ds);
    hostAgent(ctx->host)
        .acquireSlot([this, ctx]() { dataAgentGranted(ctx); });
}

void
ManagementServer::dataAgentGranted(CtxPtr ctx)
{
    ctx->held_agent = &hostAgent(ctx->host);
    SimDuration setup = costs.sampleHost(ctx->task->type());
    ctx->agent_service = setup;
    sim.schedule(setup, [this, ctx]() { dataSetupDone(ctx); });
}

void
ManagementServer::dataSetupDone(CtxPtr ctx)
{
    // The agent went dark while the setup ran: park until the
    // reconnect reconciliation re-enters here.  The agent slot and
    // datastore slot stay held — the host-side work really is
    // occupying them — and the parked window lands in this op's
    // HostAgent phase time.
    if (hostAgent(ctx->host)
            .parkIfDisconnected([this, ctx] { dataSetupDone(ctx); })) {
        return;
    }
    endPhase(ctx, TaskPhase::HostAgent);
    traceAgentSplit(ctx, ctx->agent_service);
    if (ctx->data_bytes <= 0) {
        releaseDataSlots(ctx);
        advance(ctx);
        return;
    }
    startPhase(ctx, TaskPhase::DataCopy);
    if (!ctx->src_host.valid() && ctx->src_ds == ctx->dst_ds) {
        inv.datastore(ctx->dst_ds)
            .copyPipe()
            .startTransfer(ctx->data_bytes,
                           [this, ctx]() { dataCopyDone(ctx); });
        return;
    }
    // Everything else moves over the routed fabric: between the
    // datastores' bound nodes, or host to host for a live migration's
    // memory image.  The degenerate single-link topology ignores the
    // endpoints.
    Fabric &fab = net.topology();
    FabricNodeId src = kInvalidFabricNode;
    FabricNodeId dst = kInvalidFabricNode;
    if (!fab.degenerate()) {
        if (ctx->src_host.valid()) {
            src = fab.hostNode(ctx->src_host);
            dst = fab.hostNode(ctx->host);
        } else {
            src = fab.datastoreNode(ctx->src_ds);
            dst = fab.datastoreNode(ctx->dst_ds);
        }
    }
    fab.startTransfer(
        src, dst, ctx->data_bytes,
        [this, ctx]() { dataCopyDone(ctx); },
        [this, ctx]() { dataCopyFailed(ctx); },
        ctx->task->id().value,
        static_cast<std::uint8_t>(ctx->task->type()));
}

void
ManagementServer::dataCopyDone(CtxPtr ctx)
{
    // Same parking rule as dataSetupDone: a copy that finished
    // against a dark agent cannot report back until reconciliation.
    if (hostAgent(ctx->host)
            .parkIfDisconnected([this, ctx] { dataCopyDone(ctx); })) {
        return;
    }
    endPhase(ctx, TaskPhase::DataCopy);
    bytes_moved += ctx->data_bytes;
    if (!bytes_moved_stat)
        bytes_moved_stat = &stats.counter("cp.bytes_moved");
    bytes_moved_stat->inc(static_cast<std::uint64_t>(ctx->data_bytes));
    releaseDataSlots(ctx);
    advance(ctx);
}

void
ManagementServer::dataCopyFailed(CtxPtr ctx)
{
    endPhase(ctx, TaskPhase::DataCopy);
    // finish() releases the held agent and datastore slot and rolls
    // back the op's provisional records.
    finish(ctx, TaskError::NetworkUnreachable);
}

void
ManagementServer::releaseDataSlots(CtxPtr ctx)
{
    ctx->held_agent->release();
    ctx->held_agent = nullptr;
    ctx->held_ds_slot->release();
    ctx->held_ds_slot = nullptr;
}

TaskError
ManagementServer::runHook(CtxPtr ctx, OpStage stage)
{
    switch (ctx->task->type()) {
      case OpType::PowerOn:
      case OpType::PowerOff:
      case OpType::Suspend:
      case OpType::Reset:
        return powerHooks(ctx, stage);
      case OpType::CreateVm:
        return createVmHooks(ctx, stage);
      case OpType::CloneFull:
      case OpType::CloneLinked:
        return cloneHooks(ctx, stage);
      case OpType::Destroy:
        return destroyHooks(ctx, stage);
      case OpType::RegisterVm:
      case OpType::UnregisterVm:
        return registerHooks(ctx, stage);
      case OpType::Reconfigure:
        return reconfigureHooks(ctx, stage);
      case OpType::Snapshot:
        return snapshotHooks(ctx, stage);
      case OpType::RemoveSnapshot:
        return removeSnapshotHooks(ctx, stage);
      case OpType::Relocate:
        return relocateHooks(ctx, stage);
      case OpType::Migrate:
        return migrateHooks(ctx, stage);
      case OpType::AddHost:
      case OpType::RemoveHost:
      case OpType::EnterMaintenance:
      case OpType::ExitMaintenance:
        return hostLifecycleHooks(ctx, stage);
      case OpType::ReplicateBaseDisk:
        return replicateBaseDiskHooks(ctx, stage);
      case OpType::ConsolidateDisk:
        return consolidateDiskHooks(ctx, stage);
      case OpType::NumOpTypes:
        break;
    }
    panic("ManagementServer: unhandled op type");
}

/*
 * Power verbs: exclusive VM lock + shared host lock; PowerOn commits
 * host resources before the host agent runs (admission control).
 */
TaskError
ManagementServer::powerHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    OpType t = req.type;
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(req.vm);
        if (!vm.host.valid() || vm.is_template)
            return TaskError::InvalidState;
        Host &host = inv.host(vm.host);
        if (!host.connected() ||
            (t == OpType::PowerOn && host.inMaintenance()))
            return TaskError::HostUnavailable;
        ctx->vm = req.vm;
        ctx->host = vm.host;
        ctx->host_step = HostStep::Agent;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->host), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        // Re-validate: the VM may have been destroyed, moved to
        // another host (a migrate beat us to the lock), or changed
        // power state while we waited.  Acting on a stale host id
        // would release the commitment on the wrong host.
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (vm.host != ctx->host)
            return TaskError::InvalidState;
        if (t == OpType::Reset) {
            if (vm.powerState() != PowerState::PoweredOn)
                return TaskError::InvalidState;
        } else {
            PowerState target = (t == OpType::PowerOn)
                ? PowerState::PoweringOn
                : (t == OpType::PowerOff) ? PowerState::PoweringOff
                : PowerState::Suspended;
            if (!vm.canTransitionTo(target))
                return TaskError::InvalidState;
        }
        if (t == OpType::PowerOn) {
            if (!inv.host(ctx->host).commit(vm.vcpus, vm.memory))
                return TaskError::PlacementFailed;
            ctx->committed_host = ctx->host;
            ctx->committed_vcpus = vm.vcpus;
            ctx->committed_memory = vm.memory;
            vm.transitionTo(PowerState::PoweringOn);
        } else if (t == OpType::PowerOff) {
            vm.transitionTo(PowerState::PoweringOff);
        }
        return TaskError::None;
      }
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        switch (t) {
          case OpType::PowerOn:
            // A host crash may have forced the VM off mid-flight and
            // released the commitment already, so the clear must
            // happen on both branches; the failed transition then
            // turns into a task failure instead of a phantom
            // "restarted" success for a VM that is off.
            ctx->committed_host = HostId();
            if (!vm.transitionTo(PowerState::PoweredOn))
                return TaskError::InvalidState;
            break;
          case OpType::PowerOff:
            // A host crash may have forced the VM off (and released
            // its commitment) already; the failed transition tells
            // us not to double-release.
            if (vm.transitionTo(PowerState::PoweredOff))
                inv.host(ctx->host).release(vm.vcpus, vm.memory);
            break;
          case OpType::Suspend:
            if (vm.transitionTo(PowerState::Suspended))
                inv.host(ctx->host).release(vm.vcpus, vm.memory);
            break;
          default:
            break; // Reset: no state change
        }
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * CreateVm: from-scratch creation with a flat disk; shared host and
 * datastore locks; the record is provisional until the task succeeds.
 */
TaskError
ManagementServer::createVmHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        Host &host = inv.host(req.host);
        if (!host.connected() || host.inMaintenance())
            return TaskError::HostUnavailable;
        if (!host.hasDatastore(req.datastore))
            return TaskError::BadRequest;
        ctx->host = req.host;
        ctx->host_step = HostStep::Agent;
        ctx->pending_locks = {{lockKey(req.host), LockMode::Shared},
                              {lockKey(req.datastore), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterDb: {
        VmConfig vc;
        vc.name = req.name;
        vc.vcpus = req.vcpus;
        vc.memory = req.memory;
        vc.tenant = req.tenant;
        VmId vm_id = inv.createVm(vc);
        ctx->created_vms.push_back(vm_id);

        DiskConfig dc;
        dc.kind = DiskKind::Flat;
        dc.datastore = req.datastore;
        dc.capacity = req.disk_size;
        dc.owner = vm_id;
        DiskId disk = inv.createDisk(dc);
        if (!disk.valid())
            return TaskError::OutOfSpace;
        Vm &vm = inv.vm(vm_id);
        vm.disks.push_back(disk);
        vm.host = req.host;
        inv.host(req.host).registerVm(vm_id);
        ctx->task->setResultVm(vm_id);
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * CloneFull / CloneLinked: the paper's pivotal pair.  Both create a
 * provisional VM record and register it; a full clone then pushes the
 * source disks' allocated bytes through the storage (or network)
 * pipe, while a linked clone creates only a delta disk backed by a
 * prepared base disk — no bulk data at all.
 */
TaskError
ManagementServer::cloneHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    OpType t = req.type;
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm) || !inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        Host &host = inv.host(req.host);
        if (!host.connected() || host.inMaintenance())
            return TaskError::HostUnavailable;
        if (!host.hasDatastore(req.datastore))
            return TaskError::BadRequest;
        if (t == OpType::CloneLinked) {
            if (!req.base_disk.valid() || !inv.hasDisk(req.base_disk))
                return TaskError::BadRequest;
            const VirtualDisk &base = inv.disk(req.base_disk);
            if (base.kind != DiskKind::Flat ||
                base.datastore != req.datastore)
                return TaskError::BadRequest;
        }
        ctx->pending_locks = {{lockKey(req.vm), LockMode::Shared},
                              {lockKey(req.host), LockMode::Shared},
                              {lockKey(req.datastore), LockMode::Shared}};
        if (t == OpType::CloneLinked) {
            ctx->pending_locks.push_back(
                {lockKey(req.base_disk), LockMode::Shared});
        }
        return TaskError::None;
      }
      case OpStage::AfterLocks:
        // The source (and base) may have been destroyed while we
        // waited; once the shared locks are held they are safe.
        if (!inv.hasVm(req.vm) ||
            (t == OpType::CloneLinked && !inv.hasDisk(req.base_disk)))
            return TaskError::NoSuchEntity;
        return TaskError::None;
      case OpStage::AfterDb: {
        const Vm &src = inv.vm(req.vm);

        // Shape is inherited from the source.
        VmConfig vc;
        vc.name = req.name;
        vc.vcpus = src.vcpus;
        vc.memory = src.memory;
        vc.tenant = req.tenant;
        VmId vm_id = inv.createVm(vc);
        ctx->created_vms.push_back(vm_id);

        Bytes copy_bytes = 0;
        DatastoreId src_ds = req.datastore;
        DiskId new_disk;
        if (t == OpType::CloneFull) {
            Bytes total_cap = 0;
            for (DiskId d : src.disks) {
                const VirtualDisk &sd = inv.disk(d);
                total_cap += sd.capacity;
                copy_bytes += sd.allocated;
                src_ds = sd.datastore;
            }
            if (src.disks.empty()) {
                total_cap = req.disk_size;
                copy_bytes = req.disk_size;
            }
            DiskConfig dc;
            dc.kind = DiskKind::Flat;
            dc.datastore = req.datastore;
            dc.capacity = total_cap;
            dc.owner = vm_id;
            new_disk = inv.createDisk(dc);
        } else {
            const VirtualDisk &base = inv.disk(req.base_disk);
            DiskConfig dc;
            dc.kind = DiskKind::LinkedCloneDelta;
            dc.datastore = req.datastore;
            dc.capacity = base.capacity;
            dc.initial_allocation =
                costs.linkedDeltaAllocation(base.capacity);
            dc.parent = req.base_disk;
            dc.owner = vm_id;
            new_disk = inv.createDisk(dc);
        }
        if (!new_disk.valid())
            return TaskError::OutOfSpace;
        Vm &vm = inv.vm(vm_id);
        vm.disks.push_back(new_disk);
        vm.host = req.host;
        inv.host(req.host).registerVm(vm_id);
        ctx->task->setResultVm(vm_id);

        ctx->host = req.host;
        ctx->host_step = HostStep::AgentData;
        ctx->slot_ds = req.datastore;
        ctx->src_ds = src_ds;
        ctx->dst_ds = req.datastore;
        ctx->data_bytes = copy_bytes;
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * Destroy: exclusive VM lock; the VM must be powered off and its
 * disks must not back any linked clones.  A VM registered on no host
 * skips the host step.
 */
TaskError
ManagementServer::destroyHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        ctx->vm = req.vm;
        ctx->host = inv.vm(req.vm).host;
        ctx->host_step =
            ctx->host.valid() ? HostStep::Agent : HostStep::None;
        // Lock the VM's disks exclusively too: replication and
        // consolidation hold shared disk locks, and deleting a disk
        // out from under them would corrupt their copies.
        ctx->disks = inv.vm(req.vm).disks;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive}};
        if (ctx->host.valid()) {
            ctx->pending_locks.push_back(
                {lockKey(ctx->host), LockMode::Shared});
        }
        for (DiskId d : ctx->disks)
            ctx->pending_locks.push_back({lockKey(d), LockMode::Exclusive});
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        // The VM (or its disk list) may have changed while waiting;
        // the lock set would no longer match, so bail out.
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (vm.disks != ctx->disks || vm.host != ctx->host)
            return TaskError::InvalidState;
        if (vm.powerState() != PowerState::PoweredOff)
            return TaskError::InvalidState;
        // References from the VM's own snapshot chain are fine (the
        // destroy tears the chain down); only external linked-clone
        // children block it.
        for (DiskId d : vm.disks) {
            int refs_within_vm = 0;
            for (DiskId other : vm.disks) {
                if (inv.disk(other).parent == d)
                    ++refs_within_vm;
            }
            if (inv.disk(d).ref_count > refs_within_vm)
                return TaskError::InvalidState;
        }
        return TaskError::None;
      }
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        if (ctx->host.valid()) {
            inv.host(ctx->host).unregisterVm(ctx->vm);
            vm.host = HostId();
        }
        if (!inv.destroyVm(ctx->vm))
            return TaskError::InvalidState;
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * RegisterVm / UnregisterVm: light record operations.
 */
TaskError
ManagementServer::registerHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    OpType t = req.type;
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        if (t == OpType::RegisterVm) {
            if (!inv.hasHost(req.host))
                return TaskError::NoSuchEntity;
            Host &host = inv.host(req.host);
            if (!host.connected() || host.inMaintenance())
                return TaskError::HostUnavailable;
        }
        ctx->vm = req.vm;
        ctx->host =
            (t == OpType::RegisterVm) ? req.host : inv.vm(req.vm).host;
        // Unregistering a VM that is registered nowhere.
        if (!ctx->host.valid())
            return TaskError::InvalidState;
        ctx->host_step = HostStep::Agent;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->host), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (t == OpType::RegisterVm) {
            if (vm.host.valid())
                return TaskError::InvalidState;
        } else if (vm.host != ctx->host ||
                   vm.powerState() != PowerState::PoweredOff) {
            return TaskError::InvalidState;
        }
        return TaskError::None;
      }
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        if (t == OpType::RegisterVm) {
            vm.host = ctx->host;
            inv.host(ctx->host).registerVm(ctx->vm);
        } else {
            inv.host(vm.host).unregisterVm(ctx->vm);
            vm.host = HostId();
        }
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * Reconfigure: change a VM's shape.  A powered-on VM re-passes host
 * admission with its new shape.  A VM registered on no host skips the
 * host step.
 */
TaskError
ManagementServer::reconfigureHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck:
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        ctx->vm = req.vm;
        ctx->host = inv.vm(req.vm).host;
        ctx->host_step =
            ctx->host.valid() ? HostStep::Agent : HostStep::None;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive}};
        if (ctx->host.valid()) {
            ctx->pending_locks.push_back(
                {lockKey(ctx->host), LockMode::Shared});
        }
        return TaskError::None;
      case OpStage::AfterLocks:
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        // Moved (or [un]registered) while we waited; the locked host
        // no longer matches.
        if (inv.vm(ctx->vm).host != ctx->host)
            return TaskError::InvalidState;
        return TaskError::None;
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        if (vm.powerState() == PowerState::PoweredOn) {
            Host &host = inv.host(ctx->host);
            host.release(vm.vcpus, vm.memory);
            if (!host.commit(req.vcpus, req.memory)) {
                // Restore the old commitment (always fits).
                if (!host.commit(vm.vcpus, vm.memory))
                    panic("Reconfigure: restore failed");
                return TaskError::PlacementFailed;
            }
        }
        vm.vcpus = req.vcpus;
        vm.memory = req.memory;
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * Snapshot: appends a copy-on-write delta to the VM's disk chain.
 */
TaskError
ManagementServer::snapshotHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck:
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        ctx->vm = req.vm;
        ctx->host = inv.vm(req.vm).host;
        if (!ctx->host.valid() || inv.vm(req.vm).disks.empty())
            return TaskError::InvalidState;
        ctx->host_step = HostStep::Agent;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->host), LockMode::Shared}};
        return TaskError::None;
      case OpStage::AfterLocks:
        if (!inv.hasVm(ctx->vm) || inv.vm(ctx->vm).disks.empty())
            return TaskError::NoSuchEntity;
        if (inv.vm(ctx->vm).host != ctx->host)
            return TaskError::InvalidState;
        return TaskError::None;
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        DiskId tip = vm.disks.back();
        const VirtualDisk &tip_disk = inv.disk(tip);
        DiskConfig dc;
        dc.kind = DiskKind::SnapshotDelta;
        dc.datastore = tip_disk.datastore;
        dc.capacity = tip_disk.capacity;
        dc.initial_allocation =
            costs.linkedDeltaAllocation(tip_disk.capacity);
        dc.parent = tip;
        dc.owner = ctx->vm;
        DiskId delta = inv.createDisk(dc);
        if (!delta.valid())
            return TaskError::OutOfSpace;
        vm.disks.push_back(delta);
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * RemoveSnapshot: consolidates the newest snapshot delta back into
 * its parent (a data-moving operation on the datastore pipe).
 */
TaskError
ManagementServer::removeSnapshotHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck:
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        ctx->vm = req.vm;
        ctx->host = inv.vm(req.vm).host;
        if (!ctx->host.valid() || inv.vm(req.vm).disks.empty())
            return TaskError::InvalidState;
        // Lock the delta being consolidated too, so concurrent disk
        // operations (consolidate) cannot race its destruction.
        ctx->disk = inv.vm(req.vm).disks.back();
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->host), LockMode::Shared},
                              {lockKey(ctx->disk), LockMode::Exclusive}};
        return TaskError::None;
      case OpStage::AfterLocks: {
        // The chain may have changed while waiting; the locked tip
        // must still be the newest disk.
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (vm.host != ctx->host)
            return TaskError::InvalidState;
        if (vm.disks.empty() || vm.disks.back() != ctx->disk ||
            inv.disk(ctx->disk).kind != DiskKind::SnapshotDelta ||
            inv.disk(ctx->disk).ref_count > 0)
            return TaskError::InvalidState;
        const VirtualDisk &dd = inv.disk(ctx->disk);
        ctx->host_step = HostStep::AgentData;
        ctx->slot_ds = dd.datastore;
        ctx->src_ds = dd.datastore;
        ctx->dst_ds = dd.datastore;
        ctx->data_bytes = dd.allocated;
        return TaskError::None;
      }
      case OpStage::AfterHost:
        inv.vm(ctx->vm).disks.pop_back();
        if (!inv.destroyDisk(ctx->disk))
            panic("RemoveSnapshot: destroy failed");
        return TaskError::None;
      default:
        return TaskError::None;
    }
}

/*
 * Relocate: cold-migrate a powered-off VM's storage to another
 * datastore.  Linked-clone VMs must be consolidated first (their
 * delta depends on a base disk that stays behind).
 */
TaskError
ManagementServer::relocateHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(req.vm);
        if (!vm.host.valid() ||
            vm.powerState() != PowerState::PoweredOff)
            return TaskError::InvalidState;
        for (DiskId d : vm.disks) {
            if (inv.disk(d).isDelta() || inv.disk(d).ref_count > 0)
                return TaskError::InvalidState;
        }
        if (vm.disks.empty())
            return TaskError::InvalidState;
        DatastoreId src = inv.disk(vm.disks.front()).datastore;
        if (src == req.datastore)
            return TaskError::BadRequest;
        if (!inv.host(vm.host).hasDatastore(req.datastore))
            return TaskError::BadRequest;
        ctx->vm = req.vm;
        ctx->host = vm.host;
        ctx->src_ds = src;
        ctx->dst_ds = req.datastore;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->src_ds), LockMode::Shared},
                              {lockKey(ctx->dst_ds), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (vm.host != ctx->host ||
            vm.powerState() != PowerState::PoweredOff ||
            vm.disks.empty() ||
            inv.disk(vm.disks.front()).datastore != ctx->src_ds)
            return TaskError::InvalidState;
        Bytes total = 0;
        for (DiskId d : vm.disks)
            total += inv.disk(d).allocated;
        if (!inv.datastore(ctx->dst_ds).reserve(total))
            return TaskError::OutOfSpace;
        ctx->reserved_ds = ctx->dst_ds;
        ctx->reserved_bytes = total;
        ctx->host_step = HostStep::AgentData;
        ctx->slot_ds = ctx->dst_ds;
        ctx->data_bytes = total;
        return TaskError::None;
      }
      case OpStage::AfterHost:
        for (DiskId did : inv.vm(ctx->vm).disks) {
            VirtualDisk &d = inv.disk(did);
            inv.datastore(d.datastore).release(d.allocated);
            d.datastore = ctx->dst_ds;
        }
        // The raw reservation is now owned by the relocated disk
        // records.
        ctx->reserved_bytes = 0;
        ctx->reserved_ds = DatastoreId();
        return TaskError::None;
      default:
        return TaskError::None;
    }
}

/*
 * Migrate: live-migrate a powered-on VM's memory image to another
 * host over the management network (shared storage stays put).  The
 * copy streams host to host; the destination host's agent and the
 * VM's first datastore account the slots.
 */
TaskError
ManagementServer::migrateHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!inv.hasVm(req.vm) || !inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(req.vm);
        if (!vm.host.valid() || vm.host == req.host ||
            vm.powerState() != PowerState::PoweredOn)
            return TaskError::InvalidState;
        Host &dhost = inv.host(req.host);
        if (!dhost.connected() || dhost.inMaintenance())
            return TaskError::HostUnavailable;
        for (DiskId d : vm.disks) {
            if (!dhost.hasDatastore(inv.disk(d).datastore))
                return TaskError::BadRequest;
        }
        ctx->vm = req.vm;
        ctx->src_host = vm.host;
        ctx->host = req.host;
        ctx->pending_locks = {{lockKey(ctx->vm), LockMode::Exclusive},
                              {lockKey(ctx->src_host), LockMode::Shared},
                              {lockKey(ctx->host), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        if (!inv.hasVm(ctx->vm))
            return TaskError::NoSuchEntity;
        Vm &vm = inv.vm(ctx->vm);
        if (vm.powerState() != PowerState::PoweredOn ||
            vm.host != ctx->src_host || vm.disks.empty())
            return TaskError::InvalidState;
        if (!inv.host(ctx->host).commit(vm.vcpus, vm.memory))
            return TaskError::PlacementFailed;
        ctx->committed_host = ctx->host;
        ctx->committed_vcpus = vm.vcpus;
        ctx->committed_memory = vm.memory;
        // Pre-copy overhead: dirty pages are retransmitted.
        ctx->data_bytes = static_cast<Bytes>(
            static_cast<double>(vm.memory) * 1.2);
        return TaskError::None;
      }
      case OpStage::AfterDb:
        ctx->host_step = HostStep::AgentData;
        ctx->slot_ds = inv.disk(inv.vm(ctx->vm).disks.front()).datastore;
        return TaskError::None;
      case OpStage::AfterHost: {
        Vm &vm = inv.vm(ctx->vm);
        // The VM died mid-migration (source host crash); the rollback
        // in finish() returns the destination commitment.
        if (vm.powerState() != PowerState::PoweredOn)
            return TaskError::InvalidState;
        inv.host(ctx->src_host).release(vm.vcpus, vm.memory);
        inv.host(ctx->src_host).unregisterVm(ctx->vm);
        inv.host(ctx->host).registerVm(ctx->vm);
        vm.host = ctx->host;
        // Commitment now owned by the power state.
        ctx->committed_host = HostId();
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * Host lifecycle verbs.  AddHost connects a (previously disconnected)
 * host record and performs the expensive initial sync; maintenance
 * transitions gate on the host being empty of powered-on VMs —
 * evacuating them is the cloud layer's job.
 */
TaskError
ManagementServer::hostLifecycleHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    OpType t = req.type;
    switch (stage) {
      case OpStage::Precheck:
        if (!inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        ctx->host = req.host;
        ctx->host_step = HostStep::Agent;
        ctx->pending_locks = {{lockKey(ctx->host), LockMode::Exclusive}};
        if (t == OpType::AddHost || t == OpType::RemoveHost) {
            ctx->pending_locks.push_back(
                {{LockKind::Global, 0}, LockMode::Exclusive});
        }
        return TaskError::None;
      case OpStage::AfterLocks: {
        Host &host = inv.host(ctx->host);
        switch (t) {
          case OpType::AddHost:
            if (host.connected())
                return TaskError::InvalidState;
            break;
          case OpType::RemoveHost:
            if (!host.connected() || host.numVms() > 0)
                return TaskError::InvalidState;
            break;
          case OpType::EnterMaintenance:
            if (!host.connected() || host.inMaintenance())
                return TaskError::InvalidState;
            for (VmId v : host.vms()) {
                if (inv.vm(v).powerState() == PowerState::PoweredOn)
                    return TaskError::InvalidState;
            }
            break;
          case OpType::ExitMaintenance:
            if (!host.inMaintenance())
                return TaskError::InvalidState;
            break;
          default:
            panic("hostLifecycleHooks: bad op");
        }
        return TaskError::None;
      }
      case OpStage::AfterHost: {
        Host &host = inv.host(ctx->host);
        switch (t) {
          case OpType::AddHost:
            host.setConnected(true);
            break;
          case OpType::RemoveHost:
            host.setConnected(false);
            break;
          case OpType::EnterMaintenance:
            host.setMaintenance(true);
            break;
          case OpType::ExitMaintenance:
            host.setMaintenance(false);
            break;
          default:
            break;
        }
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * ReplicateBaseDisk: copy a linked-clone base disk to another
 * datastore — the unit step of "cloud reconfiguration" (spreading
 * base disks so linked clones can land on more datastores).
 */
TaskError
ManagementServer::replicateBaseDiskHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!req.base_disk.valid() || !inv.hasDisk(req.base_disk) ||
            !inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        if (inv.disk(req.base_disk).kind != DiskKind::Flat)
            return TaskError::BadRequest;
        // Same-datastore replication is legal (additional shadow
        // copies on one datastore); the copy then runs through that
        // datastore's own pipe instead of the network fabric.
        Host &host = inv.host(req.host);
        if (!host.connected() || host.inMaintenance())
            return TaskError::HostUnavailable;
        ctx->pending_locks = {{lockKey(req.base_disk), LockMode::Shared},
                              {lockKey(req.datastore), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks:
        // The base may have been destroyed while we waited for the
        // shared lock; holding it now protects the copy.
        if (!inv.hasDisk(req.base_disk))
            return TaskError::NoSuchEntity;
        return TaskError::None;
      case OpStage::AfterDb: {
        const VirtualDisk &base = inv.disk(req.base_disk);
        DiskConfig dc;
        dc.kind = DiskKind::Flat;
        dc.datastore = req.datastore;
        dc.capacity = base.capacity;
        DiskId copy = inv.createDisk(dc);
        if (!copy.valid())
            return TaskError::OutOfSpace;
        ctx->task->setResultDisk(copy);
        ctx->host = req.host;
        ctx->host_step = HostStep::AgentData;
        ctx->slot_ds = req.datastore;
        ctx->src_ds = base.datastore;
        ctx->dst_ds = req.datastore;
        ctx->data_bytes = base.allocated;
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

/*
 * ConsolidateDisk: materialize a delta disk into a standalone flat
 * disk, detaching it from its base (bounds chain depth; frees the
 * base for retirement).
 */
TaskError
ManagementServer::consolidateDiskHooks(CtxPtr ctx, OpStage stage)
{
    const OpRequest &req = ctx->task->request();
    switch (stage) {
      case OpStage::Precheck: {
        if (!req.base_disk.valid() || !inv.hasDisk(req.base_disk) ||
            !inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        const VirtualDisk &d = inv.disk(req.base_disk);
        if (!d.isDelta() || d.ref_count > 0)
            return TaskError::BadRequest;
        ctx->disk = req.base_disk;
        ctx->parent_disk = d.parent;
        ctx->pending_locks = {
            {lockKey(ctx->disk), LockMode::Exclusive},
            {lockKey(ctx->parent_disk), LockMode::Shared}};
        return TaskError::None;
      }
      case OpStage::AfterLocks: {
        // Either end of the chain may have vanished while we waited
        // (the disks are not ours until the locks are).
        if (!inv.hasDisk(ctx->disk) || !inv.hasDisk(ctx->parent_disk))
            return TaskError::NoSuchEntity;
        VirtualDisk &d = inv.disk(ctx->disk);
        if (!d.isDelta() || d.parent != ctx->parent_disk ||
            d.ref_count > 0)
            return TaskError::InvalidState;
        // Space for the base content being copied in.
        Bytes extra = inv.disk(ctx->parent_disk).allocated;
        if (!inv.datastore(d.datastore).reserve(extra))
            return TaskError::OutOfSpace;
        ctx->reserved_ds = d.datastore;
        ctx->reserved_bytes = extra;
        ctx->slot_ds = d.datastore;
        ctx->dst_ds = d.datastore;
        ctx->data_bytes = extra;
        return TaskError::None;
      }
      case OpStage::AfterDb:
        ctx->host = req.host;
        ctx->host_step = HostStep::AgentData;
        ctx->src_ds = inv.disk(ctx->parent_disk).datastore;
        return TaskError::None;
      case OpStage::AfterHost: {
        VirtualDisk &d = inv.disk(ctx->disk);
        VirtualDisk &parent = inv.disk(ctx->parent_disk);
        d.allocated += ctx->reserved_bytes;
        d.kind = DiskKind::Flat;
        d.parent = DiskId();
        d.chain_depth = 1;
        parent.ref_count -= 1;
        if (parent.ref_count < 0)
            panic("Consolidate: ref underflow");
        // Reservation now owned by the disk record.
        ctx->reserved_bytes = 0;
        ctx->reserved_ds = DatastoreId();
        return TaskError::None;
      }
      default:
        return TaskError::None;
    }
}

} // namespace vcp

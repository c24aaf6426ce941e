/**
 * @file
 * The management task record.
 *
 * Every operation submitted to the management server becomes a Task
 * that tracks its lifecycle, error disposition, and — central to the
 * characterization — how much wall time each pipeline phase consumed.
 */

#ifndef VCP_CONTROLPLANE_TASK_HH
#define VCP_CONTROLPLANE_TASK_HH

#include <array>
#include <cstddef>
#include <functional>

#include "controlplane/op_types.hh"
#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** Pipeline phases a task's latency decomposes into. */
enum class TaskPhase
{
    Api,       ///< front-door CPU (session, validation, task create)
    Queue,     ///< waiting for a dispatch slot
    Locks,     ///< waiting for entity locks
    Db,        ///< inventory-database transactions
    HostAgent, ///< host-agent slot wait + execution
    DataCopy,  ///< bulk data movement
    Finalize,  ///< completion-side database work
    NumPhases
};

constexpr std::size_t kNumTaskPhases =
    static_cast<std::size_t>(TaskPhase::NumPhases);

/** Stable short name for a phase. */
const char *taskPhaseName(TaskPhase p);

/** Task lifecycle states. */
enum class TaskState
{
    Pending,
    Running,
    Succeeded,
    Failed,
};

/** Why a task failed. */
enum class TaskError
{
    None,
    NoSuchEntity,     ///< referenced VM/host/datastore does not exist
    InvalidState,     ///< e.g.\ power-on of a powered-on VM
    PlacementFailed,  ///< host cannot admit the VM
    OutOfSpace,       ///< datastore reservation failed
    HostUnavailable,  ///< host disconnected or in maintenance
    BadRequest,       ///< malformed request (missing base disk, ...)
    Cancelled,          ///< cancelled before execution began
    RateLimited,        ///< rejected by the tenant's API rate limit
    NetworkUnreachable, ///< data-copy path lost to link/node failure
};

/** Number of TaskError codes (for error-counter caches). */
constexpr std::size_t kNumTaskErrors = 10;

/** Stable short name for an error code. */
const char *taskErrorName(TaskError e);

/** One management operation in flight (or finished). */
class Task
{
  public:
    Task(TaskId id, OpRequest req)
        : task_id(id), op(std::move(req))
    {}

    TaskId id() const { return task_id; }
    const OpRequest &request() const { return op; }
    OpType type() const { return op.type; }

    TaskState state() const { return task_state; }
    TaskError error() const { return task_error; }
    bool succeeded() const { return task_state == TaskState::Succeeded; }
    bool finished() const
    {
        return task_state == TaskState::Succeeded ||
               task_state == TaskState::Failed;
    }

    /** Submission timestamp (set by the management server). */
    SimTime submittedAt() const { return submitted; }

    /** End-to-end latency; 0 until finished. */
    SimDuration
    latency() const
    {
        return finished() ? completed - submitted : 0;
    }

    /** Accumulated time in a pipeline phase. */
    SimDuration
    phaseTime(TaskPhase p) const
    {
        return phase_times[static_cast<std::size_t>(p)];
    }

    /** New VM produced by a provisioning op; invalid otherwise. */
    VmId resultVm() const { return result_vm; }

    /** New disk produced by ReplicateBaseDisk; invalid otherwise. */
    DiskId resultDisk() const { return result_disk; }

    /** @{ Mutators used by the management server pipeline. */
    void markSubmitted(SimTime t) { submitted = t; }

    void
    markStarted(SimTime t)
    {
        started = t;
        task_state = TaskState::Running;
    }

    void
    markFinished(SimTime t, TaskError e)
    {
        completed = t;
        task_error = e;
        task_state = (e == TaskError::None) ? TaskState::Succeeded
                                            : TaskState::Failed;
    }

    void
    addPhaseTime(TaskPhase p, SimDuration d)
    {
        phase_times[static_cast<std::size_t>(p)] += d;
    }

    void setResultVm(VmId v) { result_vm = v; }
    void setResultDisk(DiskId d) { result_disk = d; }
    /** @} */

    /** @{ Best-effort cancellation (honored before execution). */
    void requestCancel() { cancel_requested = true; }
    bool cancelRequested() const { return cancel_requested; }
    /** @} */

  private:
    TaskId task_id;
    OpRequest op;
    TaskState task_state = TaskState::Pending;
    TaskError task_error = TaskError::None;
    SimTime submitted = 0;
    SimTime started = 0;
    SimTime completed = 0;
    std::array<SimDuration, kNumTaskPhases> phase_times{};
    VmId result_vm;
    DiskId result_disk;
    bool cancel_requested = false;
};

/** Completion callback delivered when a task finishes. */
using TaskCallback = std::function<void(const Task &)>;

} // namespace vcp

#endif // VCP_CONTROLPLANE_TASK_HH

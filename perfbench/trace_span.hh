/**
 * @file
 * Spans of the traced benchmark driver.
 *
 * The benchmark records spans from its own code only: PB_SPAN around
 * the calls it makes into a layer, and link-time wrappers
 * (trace_wrap.cc) around public calls one library module makes into
 * another.  In the untraced driver every PB_SPAN compiles to nothing.
 */

#ifndef PERFBENCH_TRACE_SPAN_HH
#define PERFBENCH_TRACE_SPAN_HH

#include <cstdint>
#include <string>

namespace perfbench {

/** What a span covers; trace_wrap.cc maps each kind to its layer. */
enum class Kind : std::uint8_t
{
    // The benchmark's own spans.
    Main,         ///< the whole driver process body
    Setup,        ///< building the stack (CloudSimulation, federation)
    SimRun,       ///< one runUntil() slice or burst step
    Route,        ///< federation deploy routing between steps
    Report,       ///< end-of-run bottleneck / attribution tables
    TraceExport,  ///< shard lanes + Perfetto JSON export
    TelemetryEnd, ///< health report + final snapshot + Prometheus
    Dumps,        ///< stats and op-trace CSV exports
    Digest,       ///< hashing the outcome (the benchmark's check)
    Teardown,     ///< destroying the stack
    // Wrapped calls between library modules.
    VApp,          ///< CloudDirector::vapp
    Deploy,        ///< CloudDirector::deployVApp
    Undeploy,      ///< CloudDirector::undeployVApp
    CloudBuild,    ///< CloudDirector::addTenant / createTemplate
    Place,         ///< PlacementEngine::place
    Submit,        ///< ManagementServer::submit
    Lock,          ///< LockManager::acquireAll
    AgentExec,     ///< HostAgent::execute
    Transfer,      ///< Fabric::startTransfer
    InfraBuild,    ///< Inventory / Fabric construction calls
    HostLookup,    ///< Inventory::host (counted, not timed)
    VmLookup,      ///< Inventory::vm (counted, not timed)
    DsLookup,      ///< Inventory::datastore (counted, not timed)
    PlaceHostLookup, ///< Inventory::host inside a place() call
    Count
};

#ifdef VCPBENCH_TRACED

/** A scoped span on the calling thread's span stack. */
class Span
{
  public:
    explicit Span(Kind k) noexcept;
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

/** Count an untimed event of kind @p k on the calling thread. */
void count(Kind k) noexcept;

/**
 * Close the trace: write every kept span as Chrome trace_event JSON
 * to @p spans_path and return the per-kind and per-layer table as a
 * JSON object.  Call from the main thread after all workers joined.
 */
std::string finishTrace(const std::string &spans_path);

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define PB_SPAN(k) \
    ::perfbench::Span PB_CAT(pb_span_, __LINE__)(::perfbench::Kind::k)

#else

#define PB_SPAN(k) static_cast<void>(0)

#endif

} // namespace perfbench

#endif // PERFBENCH_TRACE_SPAN_HH

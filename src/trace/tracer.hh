/**
 * @file
 * The op-lifecycle span tracer.
 *
 * SpanTracer owns the TraceRing plus everything the raw ring cannot
 * carry: the interned name table for free-form spans and counters,
 * the (op type x phase) axes the control plane registers at attach
 * time, and the *exact* per-(op, phase) latency histograms that feed
 * the analysis layer.  The ring may wrap (the Perfetto export then
 * shows the most recent window); the histograms are fed on every
 * record and never drop, so phase p50/p95/p99 cover the whole run.
 *
 * Hot-path contract: recording does not allocate, does not touch the
 * RNG, and does not schedule events, so an attached-but-disabled (or
 * absent) tracer leaves the event stream byte-identical.  All string
 * work happens at attach/intern/export time.
 */

#ifndef VCP_TRACE_TRACER_HH
#define VCP_TRACE_TRACER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/latency_hist.hh"
#include "trace/ring.hh"

/** Hot-path guard for SpanTracer pointers (see VCP_TRACE_ON). */
#define VCP_TRACER_ON(t) ((t) != nullptr && (t)->enabled())

namespace vcp {

/** Sizing and switches for one tracer. */
struct TracerConfig
{
    /** Ring capacity in records (32 B each). */
    std::size_t capacity = 1u << 20;

    /** Start enabled (runtime-togglable either way). */
    bool enabled = true;
};

/** Ring + names + axes + exact per-phase aggregation. */
class SpanTracer
{
  public:
    explicit SpanTracer(const TracerConfig &cfg = {});

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** The raw ring (components hold this pointer for recording). */
    TraceRing &ring() { return ring_; }
    const TraceRing &ring() const { return ring_; }

    bool enabled() const { return ring_.enabled(); }
    void setEnabled(bool e) { ring_.setEnabled(e); }

    /**
     * Register the (op type, phase, error) axes.  Called once by the
     * management server at attach; idempotent for identical axes,
     * panics on conflicting ones (two servers cannot share a tracer).
     */
    void setAxes(std::vector<std::string> op_names,
                 std::vector<std::string> phase_names,
                 std::vector<std::string> error_names);

    /** @{ Axis tables (empty until setAxes). */
    const std::vector<std::string> &opNames() const { return ops; }
    const std::vector<std::string> &phaseNames() const { return phases; }
    const std::vector<std::string> &errorNames() const { return errors; }
    /** @} */

    /**
     * Intern a free-form span/counter/instant name; returns a stable
     * id.  Setup-time only (hashes the string).
     */
    std::uint16_t intern(const std::string &name);

    /** All interned names, id order. */
    const std::vector<std::string> &internedNames() const
    {
        return interned;
    }

    /** @{ Recording (allocation-free; call only when enabled()). */
    void
    recordPhase(std::uint8_t op, std::uint8_t phase,
                std::int64_t task_id, SimTime start, SimDuration dur)
    {
        ring_.push({start, dur, task_id,
                    static_cast<std::uint16_t>(phase), SpanKind::Phase,
                    op, {}});
        if (op < num_ops && phase < num_phases)
            phase_hist[op * num_phases + phase].add(dur);
    }

    void
    recordOp(std::uint8_t op, std::uint8_t error, std::int64_t task_id,
             SimTime start, SimDuration dur)
    {
        ring_.push({start, dur, task_id,
                    static_cast<std::uint16_t>(error), SpanKind::Op, op,
                    {}});
        if (op < op_hist.size())
            op_hist[op].add(dur);
    }

    void
    recordSpan(std::uint16_t name, std::int64_t scope, SimTime start,
               SimDuration dur)
    {
        ring_.push({start, dur, scope, name, SpanKind::Span, 0xff, {}});
    }

    void
    recordInstant(std::uint16_t name, std::int64_t scope, SimTime t)
    {
        ring_.push({t, 0, scope, name, SpanKind::Instant, 0xff, {}});
    }

    void
    recordCounter(std::uint16_t name, SimTime t, std::int64_t value)
    {
        ring_.push({t, value, 0, name, SpanKind::Counter, 0xff, {}});
    }
    /** @} */

    /**
     * Latency histogram of one (op, phase) cell (usec), fed on every
     * record (exact counts and sums even when the ring wraps).
     * Empty-but-valid before any sample; panics before setAxes or
     * out of range.
     */
    const LatencyHistogram &phaseHistogram(std::size_t op,
                                           std::size_t phase) const;

    /** End-to-end latency histogram of one op type (usec). */
    const LatencyHistogram &opHistogram(std::size_t op) const;

    /**
     * Total time recorded in a phase across all op types (usec) —
     * the raw material of live bottleneck attribution.
     */
    double phaseTotalTime(std::size_t phase) const;

    /** Ops recorded for one type (successful and failed). */
    std::uint64_t opCount(std::size_t op) const;

  private:
    TraceRing ring_;

    std::vector<std::string> ops;
    std::vector<std::string> phases;
    std::vector<std::string> errors;

    /** Axis sizes mirrored out of the vectors for the record path. */
    std::uint32_t num_ops = 0;
    std::uint32_t num_phases = 0;

    /** Row-major [op][phase] latency histograms, exactly fed. */
    std::vector<LatencyHistogram> phase_hist;
    std::vector<LatencyHistogram> op_hist;

    std::vector<std::string> interned;
    std::unordered_map<std::string, std::uint16_t> intern_ids;
};

} // namespace vcp

#endif // VCP_TRACE_TRACER_HH

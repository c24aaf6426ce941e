/**
 * @file
 * TelemetryRegistry: named streaming instruments plus polled probes.
 *
 * The registry is the observation API for the whole simulator.  Hot
 * paths hold raw instrument pointers obtained once at attach time and
 * feed them with a couple of integer ops per event; cold paths
 * (snapshot emitter, gauge sampler) walk the registry and read the
 * instruments in place.  Memory is O(registered instruments) —
 * independent of run length, event count, and entity count — because
 * every instrument is one of the fixed-footprint primitives in
 * instruments.hh.
 *
 * Util probes carry the plane of the resource they read, so the
 * registry's readUtils() is the input of every bottleneck verdict
 * built on telemetry.  ResourceUtilization and the one rule that
 * picks the dominant resource (dominantResource()) live here, below
 * both the analysis and the health report, so the end-of-run
 * analysis, the health report and the emitter's per-window history
 * name the same resource for the same readings.
 *
 * One registry serves one single-threaded model: each name maps to
 * exactly one instrument.  Merge-mode sharded execution is
 * byte-identical to serial, so a run emits the same series and values
 * for any shard count.  Federation domains that run Threaded keep
 * their own registries.
 *
 * Hot-path guard: like VCP_TRACER_ON for spans, every push site is
 * gated on VCP_TELEM_ON(p), so a detached registry costs one branch.
 */

#ifndef VCP_TELEMETRY_TELEMETRY_HH
#define VCP_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "telemetry/instruments.hh"
#include "trace/latency_hist.hh"

/** True when telemetry pointer @p p is attached. */
#define VCP_TELEM_ON(p) ((p) != nullptr)

namespace vcp {

/** One bounded resource's utilization, with the plane it belongs to. */
struct ResourceUtilization
{
    std::string name;

    /** Control plane vs data plane, for the headline attribution. */
    bool control_plane = true;

    /** Mean utilization over the run, in [0, 1]. */
    double utilization = 0.0;
};

/**
 * The one dominant-resource rule every bottleneck verdict uses: the
 * entry with the highest utilization, ties to the one listed first.
 * When nothing is above 0 (the run, or window, was idle) there is no
 * dominant: the result is {"none", data plane, 0}.
 */
ResourceUtilization
dominantResource(const std::vector<ResourceUtilization> &u);

/** Name of the dominant resource ("none" when all idle). */
std::string bottleneckResource(
    const std::vector<ResourceUtilization> &u);

/** True when there is a dominant resource and it is control plane. */
bool controlPlaneLimited(const std::vector<ResourceUtilization> &u);

/** Named instrument store plus polled probes. */
class TelemetryRegistry
{
  public:
    /**
     * @param window sliding-window width for counters/rates; also
     *        the EWMA time constant for gauges.
     */
    explicit TelemetryRegistry(SimDuration window = seconds(60));

    TelemetryRegistry(const TelemetryRegistry &) = delete;
    TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

    /**
     * Get-or-create counter @p name.  The returned pointer is stable
     * for the registry's lifetime.
     */
    WindowedCounter *counter(const std::string &name);

    /** Get-or-create histogram @p name. */
    LatencyHistogram *histogram(const std::string &name);

    /** Get-or-create decaying gauge @p name. */
    DecayingGauge *gauge(const std::string &name);

    /**
     * Register a polled level probe (queue depth, slot occupancy).
     * Sampled into the series' DecayingGauge by sampleGauges() —
     * driven by the snapshot emitter and/or the GaugeSampler.
     */
    void addGaugeProbe(const std::string &name,
                       std::function<std::int64_t()> fn);

    /**
     * Register a utilization probe (0..1-ish double, read at
     * snapshot time; not windowed) of a @p control_plane or
     * data-plane resource.
     */
    void addUtilProbe(const std::string &name, bool control_plane,
                      std::function<double()> fn);

    /**
     * Register a monotone-counter probe for a value maintained
     * elsewhere (completed ops, reroutes).  The emitter differences
     * consecutive reads to derive the windowed rate.
     * @p shard_scoped series are exported under the "shards" section.
     */
    void addCounterProbe(const std::string &name,
                         std::function<std::uint64_t()> fn,
                         bool shard_scoped = false);

    /** Poll every gauge probe into its DecayingGauge at @p now. */
    void sampleGauges(SimTime now);

    /** Read every util probe once, in registration order. */
    std::vector<ResourceUtilization> readUtils() const;

    // --- enumeration (snapshot emitter / tests) -------------------

    std::vector<std::string> counterNames() const;
    std::vector<std::string> histogramNames() const;
    std::vector<std::string> gaugeNames() const;

    /** The instrument named @p name; null when none is registered. */
    const WindowedCounter *findCounter(const std::string &name) const;
    const LatencyHistogram *findHistogram(const std::string &name) const;
    const DecayingGauge *findGauge(const std::string &name) const;

    struct CounterProbe
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        bool shard_scoped = false;
        /** Previous reading, differenced by the emitter per window. */
        std::uint64_t prev = 0;
    };

    std::vector<CounterProbe> &counterProbes() { return cprobes_; }

    // --- footprint (O(1)-memory acceptance test) ------------------

    /** Number of instruments + probes registered. */
    std::size_t numInstruments() const;

    /**
     * Bytes held by instruments.  Proxy for RSS growth: two runs
     * with the same instrument set report the same footprint no
     * matter how long they ran.
     */
    std::size_t footprintBytes() const;

    SimDuration window() const { return window_; }

  private:
    struct UtilProbe
    {
        std::string name;
        bool control_plane = true;
        std::function<double()> fn;
    };

    struct GaugeProbe
    {
        std::function<std::int64_t()> fn;
        DecayingGauge *sink = nullptr;
    };

    /** Instruments in registration order; stable addresses. */
    template <typename T>
    using Named = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

    SimDuration window_;
    Named<WindowedCounter> counters_;
    Named<LatencyHistogram> hists_;
    Named<DecayingGauge> gauges_;
    std::vector<UtilProbe> utils_;
    std::vector<CounterProbe> cprobes_;
    std::vector<GaugeProbe> gprobes_;
};

} // namespace vcp

#endif // VCP_TELEMETRY_TELEMETRY_HH

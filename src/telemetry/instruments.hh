/**
 * @file
 * O(1)-memory streaming instruments for live telemetry.
 *
 * Every instrument here has a fixed footprint regardless of how many
 * samples it absorbs or how long the run lasts — the ROADMAP's
 * cloud-scale item (10k+ hosts, 1M+ VMs) rules out the per-entity,
 * per-bucket growth of stats::TimeSeries for always-on collection.
 * Three primitives cover the saturation points the paper cares about:
 *
 *  - WindowedCounter: monotone total plus a sliding-window rate kept
 *    in a small ring of sub-window slots.  add() is a few integer
 *    ops; reading the window sums at most kSlots slots.
 *  - DecayingGauge: exponentially-weighted moving average of a
 *    sampled level (queue depth, slot occupancy) with min/max/last.
 *  - LatencyHistogram (from trace/latency_hist.hh): quarter-octave
 *    clz-bucketed HDR-style histogram.
 *
 * One registry serves one single-threaded model, so each series is
 * one instrument; federation domains keep their own registries.
 */

#ifndef VCP_TELEMETRY_INSTRUMENTS_HH
#define VCP_TELEMETRY_INSTRUMENTS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/types.hh"

namespace vcp {

/**
 * Monotone counter with a sliding-window rate.
 *
 * The window is divided into kSlots sub-windows; each slot remembers
 * the epoch (window-slot index of sim time) it last accumulated for,
 * so stale slots are lazily zeroed on the next touch.  inWindow()
 * sums the slots whose epoch falls inside the trailing window —
 * O(kSlots), no per-event storage.
 */
class WindowedCounter
{
  public:
    static constexpr int kSlots = 8;

    explicit WindowedCounter(SimDuration window = seconds(60))
        : slot_width(std::max<SimDuration>(window / kSlots, 1))
    {}

    /** Record @p n events at sim time @p now. */
    void
    add(SimTime now, std::uint64_t n = 1)
    {
        total_ += n;
        std::int64_t epoch = now / slot_width;
        auto idx = static_cast<std::size_t>(epoch % kSlots);
        if (epochs[idx] != epoch) {
            epochs[idx] = epoch;
            slots[idx] = 0;
        }
        slots[idx] += n;
    }

    /** All-time total. */
    std::uint64_t total() const { return total_; }

    /** Events inside the trailing window ending at @p now. */
    std::uint64_t
    inWindow(SimTime now) const
    {
        std::int64_t epoch = now / slot_width;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < kSlots; ++i)
            if (epochs[i] > epoch - kSlots && epochs[i] <= epoch)
                sum += slots[i];
        return sum;
    }

    /** Windowed rate in events per sim second. */
    double
    ratePerSec(SimTime now) const
    {
        double win_s = toSeconds(slot_width) * kSlots;
        return win_s > 0
            ? static_cast<double>(inWindow(now)) / win_s
            : 0.0;
    }

    SimDuration window() const { return slot_width * kSlots; }

  private:
    SimDuration slot_width;
    std::uint64_t total_ = 0;
    std::uint64_t slots[kSlots] = {};
    std::int64_t epochs[kSlots] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

/**
 * Exponentially-decaying gauge: EWMA of a sampled level with a fixed
 * time constant, plus last/min/max over the whole run.  sample() pays
 * one exp() when the gap since the previous sample changes — it runs
 * on the cold sampler/snapshot path, never per event.
 */
class DecayingGauge
{
  public:
    explicit DecayingGauge(SimDuration tau = seconds(60))
        : tau_s(std::max(toSeconds(tau), 1e-9))
    {}

    void
    sample(SimTime now, double v)
    {
        if (n == 0) {
            ewma_ = v;
        } else {
            // Samplers feed at a fixed period: exp() only when the
            // gap changes.  dt == 0 matches the initial alpha of 0.
            SimDuration d = now - last_t;
            if (d != alpha_dt) {
                double dt = toSeconds(d);
                alpha = dt > 0 ? 1.0 - std::exp(-dt / tau_s) : 0.0;
                alpha_dt = d;
            }
            ewma_ += alpha * (v - ewma_);
        }
        last_t = now;
        last_ = v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        ++n;
    }

    double last() const { return n ? last_ : 0.0; }
    double ewma() const { return n ? ewma_ : 0.0; }
    double min() const { return n ? min_ : 0.0; }
    double max() const { return n ? max_ : 0.0; }
    std::uint64_t samples() const { return n; }

  private:
    double tau_s;
    double ewma_ = 0.0;
    double last_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    SimTime last_t = 0;
    std::uint64_t n = 0;

    /** EWMA weight cached for the sample gap it was computed for. */
    SimDuration alpha_dt = 0;
    double alpha = 0.0;
};

} // namespace vcp

#endif // VCP_TELEMETRY_INSTRUMENTS_HH

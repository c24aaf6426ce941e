/**
 * @file
 * Fixed-bucket latency histogram for the tracer and telemetry hot paths.
 *
 * The tracer feeds one histogram on *every* phase and op record, and
 * telemetry one per latency series, so its add() has a tighter budget than the general-purpose
 * stats::Histogram (whose Welford update costs a hardware divide per
 * sample).  Durations are integer sim microseconds, which admits an
 * HdrHistogram-style bucketing: the bucket index comes from the
 * sample's most-significant bit plus the next two mantissa bits —
 * quarter-octave buckets (growth 2^(1/4) .. factor ~1.19, in the same
 * accuracy class as the stats histogram's 1.15) computed with a
 * count-leading-zeros instruction instead of a log.  add() is a
 * handful of integer ops: no divide, no float math, no allocation.
 *
 * Mean is exact (integer sum / count); quantiles interpolate within
 * the containing bucket and are clamped to the observed min/max, so a
 * single-sample histogram reports that sample for every percentile.
 */

#ifndef VCP_TRACE_LATENCY_HIST_HH
#define VCP_TRACE_LATENCY_HIST_HH

#include <algorithm>
#include <cstdint>
#include <limits>

namespace vcp {

/** Quarter-octave fixed-bucket histogram over int64 microseconds. */
class LatencyHistogram
{
  public:
    /** 2 sub-bucket bits -> 4 buckets per power of two. */
    static constexpr int kSubBits = 2;
    static constexpr std::size_t kNumBuckets = 256;

    /** Record one duration (negatives clamp to zero). */
    void
    add(std::int64_t v)
    {
        if (v < 0)
            v = 0;
        ++counts[bucketFor(v)];
        ++n;
        total += v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    std::uint64_t count() const { return n; }

    /** Exact sum of all samples (usec). */
    double sum() const { return static_cast<double>(total); }

    /** Exact mean (usec); 0 when empty. */
    double
    mean() const
    {
        return n ? static_cast<double>(total) / static_cast<double>(n)
                 : 0.0;
    }

    double min() const { return n ? static_cast<double>(lo) : 0.0; }
    double max() const { return n ? static_cast<double>(hi) : 0.0; }

    /**
     * Estimate the q-quantile (q in [0, 1]) by interpolating within
     * the containing bucket; clamped to the observed range.  Returns
     * 0 when empty.
     */
    double
    quantile(double q) const
    {
        if (n == 0)
            return 0.0;
        q = std::clamp(q, 0.0, 1.0);
        double target = q * static_cast<double>(n);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
            if (counts[i] == 0)
                continue;
            double before = static_cast<double>(seen);
            seen += counts[i];
            if (static_cast<double>(seen) >= target) {
                double at = bucketLowerEdge(i);
                double next = (i + 1 < kNumBuckets)
                    ? bucketLowerEdge(i + 1)
                    : max();
                next = std::max(next, at);
                double frac = (target - before)
                    / static_cast<double>(counts[i]);
                frac = std::clamp(frac, 0.0, 1.0);
                double est = at + frac * (next - at);
                return std::clamp(est, min(), max());
            }
        }
        return max();
    }

    /** Convenience percentiles. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /** Discard all samples. */
    void
    reset()
    {
        *this = LatencyHistogram();
    }

    /**
     * Bucket index of @p v: values below 2^kSubBits get exact unit
     * buckets; above, the MSB picks the octave and the next kSubBits
     * mantissa bits the sub-bucket.
     */
    static std::size_t
    bucketFor(std::int64_t v)
    {
        auto u = static_cast<std::uint64_t>(v);
        if (u < (1u << kSubBits))
            return static_cast<std::size_t>(u);
        int msb = 63 - __builtin_clzll(u);
        auto sub = static_cast<std::size_t>(
            (u >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
        return ((static_cast<std::size_t>(msb) - kSubBits)
                << kSubBits)
            + sub + (1u << kSubBits);
    }

    /** Inclusive lower edge of bucket @p i. */
    static double
    bucketLowerEdge(std::size_t i)
    {
        if (i < (1u << kSubBits))
            return static_cast<double>(i);
        std::size_t block = (i - (1u << kSubBits)) >> kSubBits;
        std::size_t sub = (i - (1u << kSubBits)) & ((1u << kSubBits) - 1);
        return static_cast<double>(((1u << kSubBits) + sub))
            * static_cast<double>(std::uint64_t{1} << block);
    }

    /** Raw count in bucket @p i (tests and dump tools). */
    std::uint64_t bucketCount(std::size_t i) const { return counts[i]; }

  private:
    std::uint64_t counts[kNumBuckets] = {};
    std::uint64_t n = 0;
    std::int64_t total = 0;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = 0;
};

} // namespace vcp

#endif // VCP_TRACE_LATENCY_HIST_HH

/**
 * @file
 * Instrument-primitive tests: sliding-window counter semantics, the
 * decaying gauge, and — the property the per-shard export rests on —
 * merge identity: N cells fed disjoint streams and then merged must
 * equal one cell fed the interleaved stream.
 */

#include <gtest/gtest.h>

#include <random>

#include "telemetry/instruments.hh"
#include "trace/latency_hist.hh"

namespace vcp {
namespace {

TEST(WindowedCounter, TotalAndWindowTrackSeparately)
{
    WindowedCounter c(seconds(8)); // 1 s slots
    c.add(seconds(1));
    c.add(seconds(2), 3);
    EXPECT_EQ(c.total(), 4u);
    EXPECT_EQ(c.inWindow(seconds(2)), 4u);

    // Far past the window: total persists, window drains to zero.
    EXPECT_EQ(c.inWindow(seconds(100)), 0u);
    EXPECT_EQ(c.total(), 4u);
}

TEST(WindowedCounter, SlidingWindowEvictsOldSlots)
{
    WindowedCounter c(seconds(8));
    for (int s = 0; s < 16; ++s)
        c.add(seconds(s)); // one event per second for 16 s
    EXPECT_EQ(c.total(), 16u);
    // Trailing 8 s window at t=15 covers slots for seconds 8..15.
    EXPECT_EQ(c.inWindow(seconds(15)), 8u);
    EXPECT_DOUBLE_EQ(c.ratePerSec(seconds(15)), 1.0);
}

TEST(WindowedCounter, ZeroEventsInWindowReadsZero)
{
    WindowedCounter c(seconds(8));
    EXPECT_EQ(c.inWindow(0), 0u);
    EXPECT_DOUBLE_EQ(c.ratePerSec(0), 0.0);
    c.add(seconds(1));
    EXPECT_EQ(c.inWindow(seconds(1)), 1u);
    EXPECT_EQ(c.inWindow(seconds(30)), 0u);
}

TEST(WindowedCounter, MergeEqualsSingleCounterOracle)
{
    // Interleave a deterministic event stream across 4 "shard" cells;
    // the merged view must match one counter that saw everything.
    WindowedCounter oracle(seconds(16));
    WindowedCounter cells[4] = {
        WindowedCounter(seconds(16)), WindowedCounter(seconds(16)),
        WindowedCounter(seconds(16)), WindowedCounter(seconds(16))};

    std::mt19937 rng(7);
    SimTime t = 0;
    for (int i = 0; i < 500; ++i) {
        t += static_cast<SimTime>(rng() % usec(900'000));
        std::uint64_t n = 1 + rng() % 3;
        oracle.add(t, n);
        cells[rng() % 4].add(t, n);
    }

    WindowedCounter merged(seconds(16));
    for (const auto &c : cells)
        merged.merge(c);

    EXPECT_EQ(merged.total(), oracle.total());
    EXPECT_EQ(merged.inWindow(t), oracle.inWindow(t));
    EXPECT_DOUBLE_EQ(merged.ratePerSec(t), oracle.ratePerSec(t));
}

TEST(WindowedCounter, MergeDropsSlotsStaleRelativeToOurs)
{
    WindowedCounter fresh(seconds(8)), stale(seconds(8));
    stale.add(seconds(1), 10); // epoch 1
    fresh.add(seconds(9), 2);  // same ring slot, 8 epochs later
    fresh.merge(stale);
    // The stale shard's slot is outside the fresh window — dropped,
    // exactly as add() would have evicted it.
    EXPECT_EQ(fresh.inWindow(seconds(9)), 2u);
    EXPECT_EQ(fresh.total(), 12u); // totals always accumulate
}

TEST(DecayingGauge, FirstSampleSeedsEwma)
{
    DecayingGauge g(seconds(10));
    g.sample(seconds(1), 40.0);
    EXPECT_DOUBLE_EQ(g.ewma(), 40.0);
    EXPECT_DOUBLE_EQ(g.last(), 40.0);
    EXPECT_DOUBLE_EQ(g.min(), 40.0);
    EXPECT_DOUBLE_EQ(g.max(), 40.0);
}

TEST(DecayingGauge, EwmaDecaysTowardNewLevel)
{
    DecayingGauge g(seconds(10));
    g.sample(seconds(0), 100.0);
    g.sample(seconds(10), 0.0); // one tau later
    // After one time constant the EWMA has closed 1-1/e of the gap.
    EXPECT_NEAR(g.ewma(), 100.0 * std::exp(-1.0), 1e-9);
    EXPECT_DOUBLE_EQ(g.last(), 0.0);
    EXPECT_DOUBLE_EQ(g.min(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 100.0);
    EXPECT_EQ(g.samples(), 2u);
}

TEST(DecayingGauge, EwmaExactAcrossChangingGaps)
{
    // Repeated, changed, zero and returning gaps: the weight cached
    // per gap must give the bits a fresh exp() per sample gives.
    const double tau = 10.0;
    DecayingGauge g(seconds(10));
    double ref = 0.0;
    SimTime t = 0;
    int i = 0;
    for (SimDuration gap : {0L, 100'000L, 100'000L, 300'000L, 0L,
                            100'000L, 100'000L}) {
        t += gap;
        double v = static_cast<double>((i++ * 37) % 11);
        if (i == 1) {
            ref = v;
        } else {
            double dt = toSeconds(gap);
            double alpha = dt > 0 ? 1.0 - std::exp(-dt / tau) : 0.0;
            ref += alpha * (v - ref);
        }
        g.sample(t, v);
        EXPECT_EQ(g.ewma(), ref) << "sample " << i;
    }
}

TEST(DecayingGauge, EmptyGaugeReadsZero)
{
    DecayingGauge g;
    EXPECT_DOUBLE_EQ(g.ewma(), 0.0);
    EXPECT_DOUBLE_EQ(g.min(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 0.0);
    EXPECT_EQ(g.samples(), 0u);
}

TEST(LatencyHistogram, MergeEqualsSingleHistogramOracle)
{
    LatencyHistogram oracle, a, b, c;
    std::mt19937 rng(11);
    for (int i = 0; i < 2000; ++i) {
        auto v = static_cast<SimDuration>(1 + rng() % 5'000'000);
        oracle.add(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
    }
    LatencyHistogram merged;
    merged.merge(a);
    merged.merge(b);
    merged.merge(c);

    EXPECT_EQ(merged.count(), oracle.count());
    EXPECT_DOUBLE_EQ(merged.sum(), oracle.sum());
    EXPECT_DOUBLE_EQ(merged.min(), oracle.min());
    EXPECT_DOUBLE_EQ(merged.max(), oracle.max());
    // Bucketed, so quantiles are *exactly* equal, not just close.
    EXPECT_DOUBLE_EQ(merged.p50(), oracle.p50());
    EXPECT_DOUBLE_EQ(merged.p95(), oracle.p95());
    EXPECT_DOUBLE_EQ(merged.p99(), oracle.p99());
}

TEST(LatencyHistogram, MergeOfEmptyIsIdentity)
{
    LatencyHistogram h, empty;
    h.add(usec(500));
    LatencyHistogram before = h;
    h.merge(empty);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), before.min());
    EXPECT_DOUBLE_EQ(h.max(), before.max());

    LatencyHistogram onto_empty;
    onto_empty.merge(h);
    EXPECT_EQ(onto_empty.count(), 1u);
    EXPECT_DOUBLE_EQ(onto_empty.p50(), h.p50());
}

} // namespace
} // namespace vcp

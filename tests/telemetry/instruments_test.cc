/**
 * @file
 * Instrument-primitive tests: sliding-window counter semantics and
 * the decaying gauge.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/instruments.hh"

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

} // namespace
} // namespace vcp

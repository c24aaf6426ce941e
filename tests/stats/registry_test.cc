/**
 * @file
 * Tests for the named statistics registry.
 */

#include <gtest/gtest.h>

#include "stats/registry.hh"

namespace vcp {
namespace {

TEST(StatRegistryTest, CounterLifecycle)
{
    StatRegistry reg;
    reg.counter("a.b").inc();
    reg.counter("a.b").inc(4);
    EXPECT_EQ(reg.counter("a.b").value(), 5u);
}

TEST(StatRegistryTest, HistogramCreateOnceParamsSticky)
{
    StatRegistry reg;
    Histogram &h1 = reg.histogram("h", 1.0, 2.0);
    // Second call with different params returns the same histogram.
    Histogram &h2 = reg.histogram("h", 100.0, 3.0);
    EXPECT_EQ(&h1, &h2);
    h1.add(5.0);
    EXPECT_EQ(reg.histogram("h").count(), 1u);
}

TEST(StatRegistryTest, SummaryAccumulates)
{
    StatRegistry reg;
    reg.summary("s").add(2.0);
    reg.summary("s").add(4.0);
    EXPECT_DOUBLE_EQ(reg.summary("s").mean(), 3.0);
}

TEST(StatRegistryTest, CsvContainsAllStats)
{
    StatRegistry reg;
    reg.counter("ops").inc(7);
    reg.histogram("lat").add(100.0);
    std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("ops,counter,value,7"), std::string::npos);
    EXPECT_NE(csv.find("lat,histogram,count,1"), std::string::npos);
    EXPECT_NE(csv.find("lat,histogram,p95"), std::string::npos);
}

} // namespace
} // namespace vcp

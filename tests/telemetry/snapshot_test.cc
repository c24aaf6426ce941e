/**
 * @file
 * Registry + snapshot-emitter tests: one instrument per name, the
 * snapshot edge cases (a window with zero events;
 * a run shorter than one window), the health report and its one
 * dominant-resource rule (ties, idle windows), and the
 * O(instruments) footprint contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "telemetry/health.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"

namespace vcp {
namespace {

TEST(TelemetryRegistry, GetOrCreateKeepsOneInstrumentPerName)
{
    TelemetryRegistry reg(seconds(8));
    WindowedCounter *c = reg.counter("ops");
    EXPECT_EQ(reg.counter("ops"), c); // same pointer per name
    EXPECT_NE(reg.counter("other"), c);
    c->add(seconds(1), 2);
    EXPECT_EQ(reg.findCounter("ops"), c);
    EXPECT_EQ(reg.findCounter("ops")->total(), 2u);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);

    LatencyHistogram *h = reg.histogram("lat");
    EXPECT_EQ(reg.histogram("lat"), h);
    h->add(100);
    EXPECT_EQ(reg.findHistogram("lat"), h);
    EXPECT_EQ(reg.findHistogram("missing"), nullptr);

    DecayingGauge *g = reg.gauge("q");
    EXPECT_EQ(reg.gauge("q"), g);
    EXPECT_EQ(reg.findGauge("q"), g);
    EXPECT_EQ(reg.findGauge("missing"), nullptr);

    // Names are listed once each, in registration order.
    EXPECT_EQ(reg.counterNames(),
              (std::vector<std::string>{"ops", "other"}));
    EXPECT_EQ(reg.histogramNames(), std::vector<std::string>{"lat"});
    EXPECT_EQ(reg.gaugeNames(), std::vector<std::string>{"q"});
}

TEST(TelemetryRegistry, GaugeProbesSampleIntoDecayingGauges)
{
    TelemetryRegistry reg(seconds(8));
    std::int64_t depth = 5;
    reg.addGaugeProbe("q", [&] { return depth; });
    reg.sampleGauges(seconds(1));
    depth = 9;
    reg.sampleGauges(seconds(2));

    const DecayingGauge *g = reg.findGauge("q");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->samples(), 2u);
    EXPECT_DOUBLE_EQ(g->last(), 9.0);
    EXPECT_DOUBLE_EQ(g->max(), 9.0);
}

TEST(TelemetryRegistry, FootprintIsIndependentOfRunLength)
{
    // The O(1)-memory contract: a 10x-longer event stream leaves the
    // instrument footprint bit-for-bit identical.
    auto run = [](SimTime end) {
        TelemetryRegistry reg(seconds(60));
        WindowedCounter *c = reg.counter("ops");
        LatencyHistogram *h = reg.histogram("lat");
        DecayingGauge *g = reg.gauge("q");
        for (SimTime t = 0; t < end; t += msec(100)) {
            c->add(t);
            h->add(t % 10'000);
            g->sample(t, static_cast<double>(t % 50));
        }
        return std::pair(reg.numInstruments(), reg.footprintBytes());
    };
    auto short_run = run(seconds(10));
    auto long_run = run(seconds(100));
    EXPECT_GT(short_run.second, 0u);
    EXPECT_EQ(long_run.first, short_run.first);
    EXPECT_EQ(long_run.second, short_run.second);
}

TEST(SnapshotEmitter, EmitsOneLinePerWindow)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(10));
    WindowedCounter *c = reg.counter("ops");
    sim.schedule(seconds(3), [&] { c->add(sim.now()); });
    sim.schedule(seconds(14), [&] { c->add(sim.now()); });

    SnapshotEmitter em(sim, reg, seconds(10));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.runUntil(seconds(30));
    em.stop();

    EXPECT_EQ(em.snapshots(), 3u);
    std::istringstream lines(out.str());
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.find("{\"type\":\"snapshot\""), 0u) << line;
        ++n;
    }
    EXPECT_EQ(n, 3);
    // Window totals: 1 event in window 1, 1 in window 2, 0 in 3.
    EXPECT_NE(out.str().find("\"ops\":{\"total\":1,\"window\":1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"ops\":{\"total\":2,\"window\":1"),
              std::string::npos);
}

TEST(SnapshotEmitter, WindowWithZeroEventsStillEmits)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(5));
    reg.counter("ops"); // registered but never incremented
    reg.addUtilProbe("util.x", true, [] { return 0.25; });

    SnapshotEmitter em(sim, reg, seconds(5));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.schedule(seconds(20), [] {}); // keep the clock moving
    sim.runUntil(seconds(20));
    em.stop();

    EXPECT_EQ(em.snapshots(), 4u);
    EXPECT_NE(out.str().find(
                  "\"ops\":{\"total\":0,\"window\":0,"
                  "\"rate_per_s\":0}"),
              std::string::npos);
}

TEST(SnapshotEmitter, RunShorterThanOneWindowSnapshotsAtFinish)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(60));
    WindowedCounter *c = reg.counter("ops");
    reg.addUtilProbe("util.x", true, [] { return 0.5; });
    sim.schedule(seconds(2), [&] { c->add(sim.now()); });

    SnapshotEmitter em(sim, reg, seconds(60));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.runUntil(seconds(3)); // far short of the first window tick
    em.stop();
    EXPECT_EQ(em.snapshots(), 0u);

    HealthReport hr = buildHealthReport(reg, sim.now(),
                                        em.recentDominants(),
                                        em.windowWins());
    EXPECT_TRUE(em.finish(hr));
    EXPECT_EQ(em.failedPath(), "");

    // finish() emitted the partial-window snapshot plus the health
    // line, so even a tiny run yields a complete metrics file.
    EXPECT_EQ(em.snapshots(), 1u);
    std::istringstream lines(out.str());
    std::string first, second, extra;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    EXPECT_FALSE(std::getline(lines, extra));
    EXPECT_EQ(first.find("{\"type\":\"snapshot\""), 0u);
    EXPECT_NE(first.find("\"ops\":{\"total\":1,\"window\":1"),
              std::string::npos);
    EXPECT_EQ(second.find("{\"type\":\"health\""), 0u);
    EXPECT_NE(second.find("\"dominant\":\"util.x\""),
              std::string::npos);
}

TEST(SnapshotEmitter, FailedWriteIsReportedByFinish)
{
    // A stream that stops accepting writes (a full disk) must not be
    // lost silently: finish() reports it.
    Simulator sim(1);
    TelemetryRegistry reg(seconds(60));
    SnapshotEmitter em(sim, reg, seconds(60));
    std::ostringstream out;
    em.writeTo(&out);
    em.emitNow();
    out.setstate(std::ios::badbit);
    sim.runUntil(seconds(90));
    HealthReport hr = buildHealthReport(reg, sim.now(),
                                        em.recentDominants(),
                                        em.windowWins());
    EXPECT_FALSE(em.finish(hr));
    EXPECT_EQ(em.failedPath(), "metrics stream");
}

TEST(SnapshotEmitter, UnstartedEmitterSchedulesNothing)
{
    Simulator sim(1);
    TelemetryRegistry reg;
    SnapshotEmitter em(sim, reg);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 0u);
    EXPECT_EQ(em.snapshots(), 0u);
}

TEST(HealthReport, RanksSubsystemsAndFlagsControlPlane)
{
    TelemetryRegistry reg;
    reg.addUtilProbe("util.api", true, [] { return 0.9; });
    reg.addUtilProbe("util.fabric", false, [] { return 0.4; });

    HealthReport hr = buildHealthReport(reg, seconds(5), {}, {});
    ASSERT_EQ(hr.subsystems.size(), 2u);
    EXPECT_EQ(hr.subsystems[0].name, "util.api");
    EXPECT_EQ(hr.dominant, "util.api");
    EXPECT_TRUE(hr.control_plane_limited);

    hr.top_hosts = {{"h1", 0.2}, {"h2", 0.8}, {"h3", 0.0}};
    topKCongested(hr.top_hosts, 2);
    ASSERT_EQ(hr.top_hosts.size(), 2u);
    EXPECT_EQ(hr.top_hosts[0].name, "h2");
    EXPECT_EQ(hr.top_hosts[1].name, "h1");

    std::string txt = healthText(hr);
    EXPECT_NE(txt.find("util.api"), std::string::npos);
    EXPECT_NE(txt.find("control plane"), std::string::npos);
    std::string json = healthJson(hr);
    EXPECT_EQ(json.find("{\"type\":\"health\""), 0u);
    EXPECT_NE(json.find("\"control_plane_limited\":true"),
              std::string::npos);
}

TEST(HealthReport, DataPlaneDominantIsNotControlLimited)
{
    TelemetryRegistry reg;
    reg.addUtilProbe("util.fabric", false, [] { return 0.9; });
    reg.addUtilProbe("util.api", true, [] { return 0.1; });
    HealthReport hr = buildHealthReport(reg, 0, {}, {});
    EXPECT_EQ(hr.dominant, "util.fabric");
    EXPECT_FALSE(hr.control_plane_limited);
}

TEST(HealthReport, DatastoreSlotsDominantIsControlLimited)
{
    // util.datastores is the per-datastore admission slots (the
    // bottleneck analysis's control-plane "datastore-slots"), not
    // the data-plane copy pipes.
    TelemetryRegistry reg;
    reg.addUtilProbe("util.datastores", true, [] { return 0.95; });
    reg.addUtilProbe("util.fabric", false, [] { return 0.5; });
    reg.addUtilProbe("util.api", true, [] { return 0.1; });
    HealthReport hr = buildHealthReport(reg, 0, {}, {});
    EXPECT_EQ(hr.dominant, "util.datastores");
    EXPECT_TRUE(hr.control_plane_limited);
}

TEST(HealthReport, TieGoesToFirstListedInEveryVerdict)
{
    // Two resources at equal load: the analysis rule, the health
    // report and the emitter's window history all name the one
    // registered first, even though the other sorts first by name.
    Simulator sim(1);
    TelemetryRegistry reg(seconds(10));
    reg.addUtilProbe("util.fabric", false, [] { return 0.5; });
    reg.addUtilProbe("util.api", true, [] { return 0.5; });

    EXPECT_EQ(bottleneckResource(reg.readUtils()), "util.fabric");
    EXPECT_FALSE(controlPlaneLimited(reg.readUtils()));

    SnapshotEmitter em(sim, reg, seconds(10));
    em.emitNow();
    EXPECT_EQ(em.recentDominants(),
              std::vector<std::string>{"util.fabric"});

    HealthReport hr = buildHealthReport(reg, sim.now(),
                                        em.recentDominants(),
                                        em.windowWins());
    EXPECT_EQ(hr.dominant, "util.fabric");
    EXPECT_FALSE(hr.control_plane_limited);
    // Display order still breaks the tie by name.
    EXPECT_EQ(hr.subsystems[0].name, "util.api");
    EXPECT_NE(healthText(hr).find(
                  "dominant bottleneck: util.fabric (data plane)"),
              std::string::npos);
}

TEST(HealthReport, IdleWindowsAreCreditedToNone)
{
    // Every util probe reads 0 until the load arrives: those windows
    // have no dominant, in the history as in the end-of-run verdict.
    Simulator sim(1);
    TelemetryRegistry reg(seconds(10));
    double agents = 0.0;
    reg.addUtilProbe("util.agents", true, [&] { return agents; });
    reg.addUtilProbe("util.fabric", false, [] { return 0.0; });

    SnapshotEmitter em(sim, reg, seconds(10));
    em.emitNow();
    em.emitNow();
    HealthReport idle = buildHealthReport(reg, sim.now(), {}, {});
    EXPECT_EQ(idle.dominant, "none");
    EXPECT_FALSE(idle.control_plane_limited);
    EXPECT_NE(healthText(idle).find("dominant bottleneck: none\n"),
              std::string::npos);

    agents = 0.2;
    em.emitNow();
    EXPECT_EQ(em.recentDominants(),
              (std::vector<std::string>{"none", "none", "util.agents"}));
    auto wins = em.windowWins();
    ASSERT_EQ(wins.size(), 2u);
    EXPECT_EQ(wins[0], (std::pair<std::string, std::uint64_t>{"none", 2}));
    EXPECT_EQ(wins[1],
              (std::pair<std::string, std::uint64_t>{"util.agents", 1}));
}

} // namespace
} // namespace vcp

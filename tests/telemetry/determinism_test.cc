/**
 * @file
 * End-to-end telemetry determinism: a CloudSimulation exporting
 * streaming snapshots must emit identical series for every
 * --parallel-shards count.  Everything up to the trailing "shards"
 * key of each line is compared byte-for-byte (the shard-scoped
 * section legitimately differs — that is the point of having it
 * last; see the layout contract in telemetry/snapshot.hh).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "workload/profiles.hh"

namespace vcp {
namespace {

/** Snapshot lines with the shard-scoped tail stripped. */
std::vector<std::string>
exportedPrefixes(int shards)
{
    CloudSetupSpec spec = cloudASpec();
    spec.infra.hosts = 8;
    spec.workload.duration = hours(1);
    spec.exec.shards = shards;

    CloudSimulation cs(spec, /*seed=*/42);
    TelemetryRegistry reg(seconds(600));
    cs.enableTelemetry(&reg);
    SnapshotEmitter em(cs.sim(), reg, seconds(600));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    cs.run(minutes(10));
    em.stop();

    std::vector<std::string> lines;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line)) {
        auto cut = line.find(",\"shards\":");
        lines.push_back(line.substr(0, cut));
    }
    return lines;
}

TEST(TelemetryDeterminism, WindowedRatesMatchAcrossShardCounts)
{
    std::vector<std::string> serial = exportedPrefixes(1);
    ASSERT_GT(serial.size(), 3u);
    // The run does real work: some window must show a nonzero rate.
    bool live = false;
    for (const auto &l : serial)
        live |= l.find("\"db.txn\":{\"total\":0") == std::string::npos;
    EXPECT_TRUE(live);

    for (int k : {2, 4, 8}) {
        std::vector<std::string> sharded = exportedPrefixes(k);
        ASSERT_EQ(sharded.size(), serial.size()) << "shards=" << k;
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(sharded[i], serial[i])
                << "shards=" << k << " line=" << i;
    }
}

} // namespace
} // namespace vcp

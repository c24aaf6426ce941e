/**
 * @file
 * The sharded-execution oracle at full-model scale: a CloudSimulation
 * run under the deterministic merge must be byte-identical to the
 * serial run — same stats registry CSV, same clock, same counters —
 * for every shard count.  This is the workload-level version of the
 * kernel identity tests in sim/sharded_simulator_test.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "workload/profiles.hh"

namespace vcp {
namespace {

CloudSetupSpec
smallCloudA(int shards)
{
    CloudSetupSpec spec = cloudASpec();
    spec.infra.hosts = 8;
    spec.workload.duration = hours(1);
    spec.exec.shards = shards;
    return spec;
}

struct RunArtifact
{
    std::string stats_csv;
    SimTime end = 0;
    std::uint64_t deploys_ok = 0;
    std::uint64_t vms = 0;
    std::uint64_t ops_completed = 0;
    std::uint64_t events = 0;
};

RunArtifact
runCloudA(int shards, std::uint64_t seed = 42)
{
    CloudSimulation cs(smallCloudA(shards), seed);
    cs.run(minutes(10));
    RunArtifact a;
    a.stats_csv = cs.stats().toCsv();
    a.end = cs.sim().now();
    a.deploys_ok = cs.cloud().deploysSucceeded();
    a.vms = cs.cloud().vmsProvisioned();
    a.ops_completed = cs.server().opsCompleted();
    a.events = cs.eventsProcessed();
    return a;
}

TEST(ShardedProfile, MergeRunsAreByteIdenticalToSerial)
{
    RunArtifact serial = runCloudA(1);
    ASSERT_GT(serial.ops_completed, 0u);
    for (int k : {2, 4, 8}) {
        RunArtifact sharded = runCloudA(k);
        EXPECT_EQ(sharded.stats_csv, serial.stats_csv)
            << "shards=" << k;
        EXPECT_EQ(sharded.end, serial.end) << "shards=" << k;
        EXPECT_EQ(sharded.deploys_ok, serial.deploys_ok);
        EXPECT_EQ(sharded.vms, serial.vms);
        EXPECT_EQ(sharded.ops_completed, serial.ops_completed);
        EXPECT_EQ(sharded.events, serial.events);
    }
}

TEST(ShardedProfile, AgentsAndDatastoresSpreadOffControlShard)
{
    CloudSimulation cs(smallCloudA(4), 42);
    cs.run(minutes(10));

    // The server core stays on the serialized control shard...
    EXPECT_EQ(cs.server().database().shard(), 0u);
    EXPECT_EQ(cs.server().lockManager().shard(), 0u);
    EXPECT_EQ(cs.cloud().shard(), 0u);

    // ...while the agent and datastore slot center of slot i land on
    // shard 1 + i % (K-1) and actually execute events there.
    for (HostId h : cs.hostIds()) {
        ASSERT_TRUE(h.hasSlot());
        EXPECT_EQ(cs.server().hostAgent(h).shard(), 1 + h.slot % 3)
            << "host slot " << h.slot;
    }
    for (DatastoreId d : cs.datastoreIds()) {
        ASSERT_TRUE(d.hasSlot());
        EXPECT_EQ(cs.server().datastoreSlots(d).shard(), 1 + d.slot % 3)
            << "datastore slot " << d.slot;
    }
    std::uint64_t spread_events = 0;
    for (int s = 1; s < cs.engine().numShards(); ++s)
        spread_events +=
            cs.engine().shardStats(static_cast<ShardId>(s)).events;
    EXPECT_GT(spread_events, 0u);

    // One shard: everything binds to the control kernel.
    CloudSimulation one(smallCloudA(1), 42);
    for (HostId h : one.hostIds())
        EXPECT_EQ(one.server().hostAgent(h).shard(), 0u);
    for (DatastoreId d : one.datastoreIds())
        EXPECT_EQ(one.server().datastoreSlots(d).shard(), 0u);
}

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for the control-plane federation.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cloud/federation.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

FederationConfig
smallFederation(int shards)
{
    FederationConfig cfg;
    cfg.shards = shards;
    cfg.hosts_per_shard = 2;
    cfg.host.cores = 16;
    cfg.host.memory = gib(64);
    cfg.datastores_per_shard = 1;
    cfg.datastore.capacity = gib(256);
    return cfg;
}

class FederationTest : public ::testing::Test
{
  protected:
    FederationTest()
        : sim(11), fed(sim, stats, smallFederation(3))
    {
        tenant = fed.addTenant({"org", 0});
        tmpl = fed.createTemplate("tmpl", gib(4), 0.5, 1, gib(1), 1,
                                  hours(24));
    }

    Simulator sim;
    StatRegistry stats;
    CloudFederation fed{sim, stats, smallFederation(3)};
    std::size_t tenant = 0;
    std::size_t tmpl = 0;
};

TEST_F(FederationTest, ShardsAreIndependentStacks)
{
    ASSERT_EQ(fed.numShards(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(fed.shardServer(s).inventory().numHosts(), 2u);
        EXPECT_EQ(fed.shardServer(s).inventory().numDatastores(), 1u);
        // Each shard has its own golden master.
        EXPECT_EQ(fed.shardServer(s).inventory().numVms(), 1u);
    }
}

TEST_F(FederationTest, DeployRoutesAndSucceeds)
{
    std::optional<VApp> result;
    int shard = fed.deploy(tenant, tmpl,
                           [&](const VApp &va) { result = va; });
    ASSERT_GE(shard, 0);
    sim.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->state, VAppState::Deployed);
    EXPECT_EQ(fed.deploysRouted(), 1u);
    EXPECT_EQ(fed.vmsProvisioned(), 1u);
}

TEST_F(FederationTest, LeastLoadedSpreadsAcrossShards)
{
    // Burst-routed: the pending ledger must spread the deploys even
    // though none has provisioned yet.
    std::vector<int> per_shard(3, 0);
    for (int i = 0; i < 9; ++i) {
        int s = fed.deploy(tenant, tmpl);
        ASSERT_GE(s, 0);
        per_shard[static_cast<std::size_t>(s)] += 1;
    }
    for (int c : per_shard)
        EXPECT_EQ(c, 3);
    // And everything completes.
    sim.runUntil(hours(1));
    EXPECT_EQ(fed.vmsProvisioned(), 9u);
}

TEST_F(FederationTest, RoundRobinRotates)
{
    Simulator sim2(5);
    StatRegistry stats2;
    FederationConfig cfg = smallFederation(3);
    cfg.routing = ShardRouting::RoundRobin;
    CloudFederation rr(sim2, stats2, cfg);
    std::size_t t = rr.addTenant({"org", 0});
    std::size_t m =
        rr.createTemplate("x", gib(4), 0.5, 1, gib(1), 1, hours(1));
    EXPECT_EQ(rr.deploy(t, m), 0);
    EXPECT_EQ(rr.deploy(t, m), 1);
    EXPECT_EQ(rr.deploy(t, m), 2);
    EXPECT_EQ(rr.deploy(t, m), 0);
}

TEST_F(FederationTest, BadIndicesRejected)
{
    EXPECT_EQ(fed.deploy(99, tmpl), -1);
    EXPECT_EQ(fed.deploy(tenant, 99), -1);
}

TEST_F(FederationTest, ControlPlaneResourcesMultiply)
{
    // Two federations, same total hardware, different shard counts:
    // the sharded one has K independent dispatch queues.  Drive both
    // with a synchronized burst and compare makespan.
    auto makespan = [](int shards, int hosts_per_shard) {
        Simulator s(7);
        StatRegistry st;
        FederationConfig cfg = smallFederation(shards);
        cfg.hosts_per_shard = hosts_per_shard;
        cfg.server.dispatch_width = 4; // small: the shared choke
        CloudFederation f(s, st, cfg);
        std::size_t t = f.addTenant({"org", 0});
        std::size_t m = f.createTemplate("x", gib(4), 0.5, 1, gib(1),
                                         1, hours(24));
        int pending = 48;
        SimTime done = 0;
        for (int i = 0; i < 48; ++i) {
            f.deploy(t, m, [&](const VApp &va) {
                EXPECT_EQ(va.state, VAppState::Deployed);
                if (--pending == 0)
                    done = s.now();
            });
        }
        s.run();
        EXPECT_EQ(pending, 0);
        return done;
    };
    SimTime one_shard = makespan(1, 8);
    SimTime four_shards = makespan(4, 2);
    EXPECT_GT(one_shard, 2 * four_shards);
}

TEST_F(FederationTest, InvalidConfigFatal)
{
    Simulator s(1);
    StatRegistry st;
    FederationConfig cfg = smallFederation(0);
    EXPECT_THROW(CloudFederation(s, st, cfg), FatalError);
}

/** Engine-bound federation: run the same burst under the merge
 *  oracle and under real threads; every per-shard registry must come
 *  out byte-identical (share-nothing stacks are shard-closed), also
 *  with more domains than execution shards.  Each Threaded
 *  runUntil() is one fork-join round. */
TEST_F(FederationTest, EngineThreadedMatchesMergeOracle)
{
    auto runFed = [](ShardExecMode mode, int domains,
                     std::uint64_t *rounds) {
        ShardedSimulator::Options o;
        o.mode = mode;
        ShardedSimulator eng(3, 11, o);
        StatRegistry st;
        FederationConfig cfg = smallFederation(domains);
        cfg.engine = &eng;
        CloudFederation f(eng.shard(0), st, cfg);
        std::size_t t = f.addTenant({"org", 0});
        std::size_t m = f.createTemplate("x", gib(4), 0.5, 1,
                                         gib(1), 1, hours(24));
        for (int i = 0; i < 12; ++i)
            EXPECT_GE(f.deploy(t, m), 0);
        eng.runUntil(hours(1));
        eng.runUntil(hours(2));
        *rounds = eng.rounds();
        std::vector<std::string> csv;
        for (std::size_t s = 0; s < f.numShards(); ++s)
            csv.push_back(f.shardStats(s).toCsv());
        return std::tuple(f.vmsProvisioned(), f.opsCompleted(),
                          eng.eventsProcessed(), csv);
    };
    for (int domains : {3, 5}) {
        std::uint64_t rounds = 0;
        auto merge = runFed(ShardExecMode::Merge, domains, &rounds);
        auto threaded =
            runFed(ShardExecMode::Threaded, domains, &rounds);
        EXPECT_EQ(std::get<0>(merge), 12u) << domains << " domains";
        EXPECT_EQ(merge, threaded) << domains << " domains";
        EXPECT_EQ(rounds, 2u) << domains << " domains";
    }
}

TEST_F(FederationTest, EngineThreadedRunsAreDeterministic)
{
    auto runOnce = [] {
        ShardedSimulator::Options o;
        o.mode = ShardExecMode::Threaded;
        ShardedSimulator eng(2, 7, o);
        StatRegistry st;
        FederationConfig cfg = smallFederation(2);
        cfg.engine = &eng;
        cfg.routing = ShardRouting::RoundRobin;
        CloudFederation f(eng.shard(0), st, cfg);
        std::size_t t = f.addTenant({"org", 0});
        std::size_t m = f.createTemplate("x", gib(4), 0.5, 1,
                                         gib(1), 1, hours(24));
        for (int i = 0; i < 8; ++i)
            f.deploy(t, m);
        eng.runUntil(hours(2));
        return f.shardStats(0).toCsv() + f.shardStats(1).toCsv();
    };
    std::string first = runOnce();
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(runOnce(), first) << "rep " << rep;
}

TEST_F(FederationTest, EngineShardsGetPrivateRegistries)
{
    ShardedSimulator eng(2, 3);
    StatRegistry st;
    FederationConfig cfg = smallFederation(2);
    cfg.engine = &eng;
    CloudFederation f(eng.shard(0), st, cfg);
    EXPECT_NE(&f.shardStats(0), &st);
    EXPECT_NE(&f.shardStats(0), &f.shardStats(1));
    // Without an engine the shared registry is used as before.
    EXPECT_EQ(&fed.shardStats(0), &stats);
}

/** With an engine attached, every component of domain d — agents,
 *  datastore slots, database, lock manager — binds to execution
 *  shard d % K, so each domain stays closed on one shard. */
TEST_F(FederationTest, EngineKeepsEachDomainOnOneShard)
{
    ShardedSimulator eng(4, 5);
    StatRegistry st;
    FederationConfig cfg = smallFederation(6);
    cfg.hosts_per_shard = 3;
    cfg.datastores_per_shard = 2;
    cfg.engine = &eng;
    CloudFederation f(eng.shard(0), st, cfg);
    for (std::size_t d = 0; d < f.numShards(); ++d) {
        ManagementServer &srv = f.shardServer(d);
        const ShardId want = static_cast<ShardId>(d % 4);
        EXPECT_EQ(srv.database().shard(), want) << "domain " << d;
        EXPECT_EQ(srv.lockManager().shard(), want) << "domain " << d;
        for (HostId h : srv.inventory().hostIds())
            EXPECT_EQ(srv.hostAgent(h).shard(), want)
                << "domain " << d << " host " << h.value;
        for (DatastoreId ds : srv.inventory().datastoreIds())
            EXPECT_EQ(srv.datastoreSlots(ds).shard(), want)
                << "domain " << d << " datastore " << ds.value;
    }
}

TEST_F(FederationTest, RoutingNames)
{
    EXPECT_STREQ(shardRoutingName(ShardRouting::RoundRobin),
                 "round-robin");
    EXPECT_STREQ(shardRoutingName(ShardRouting::LeastLoaded),
                 "least-loaded");
}

} // namespace
} // namespace vcp

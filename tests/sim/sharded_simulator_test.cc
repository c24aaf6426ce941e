#include "sim/sharded_simulator.hh"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace vcp {
namespace {

/** One executed event, as observed by the test workload. */
struct Obs
{
    SimTime when;
    int tag;

    bool
    operator==(const Obs &o) const
    {
        return when == o.when && tag == o.tag;
    }
};

/**
 * Schedule a deterministic branching workload.  Each event logs
 * (time, tag) and reschedules children; `at` maps a tag to a target
 * simulator, letting the same program run on one kernel (serial) or
 * spread over the shards of an engine (merge).
 */
template <typename SimFor>
void
seedWorkload(SimFor at, std::vector<Obs> &log)
{
    for (int i = 0; i < 8; ++i) {
        Simulator &sim = at(i);
        sim.scheduleAt(10 * (i % 3), [&log, i, at] {
            Simulator &self = at(i);
            log.push_back({self.now(), i});
            for (int c = 0; c < 3; ++c) {
                int tag = 100 + i * 10 + c;
                at(tag).scheduleAt(
                    self.now() + 5 + c,
                    [&log, tag, at] {
                        log.push_back({at(tag).now(), tag});
                    },
                    c - 1);
            }
        });
    }
}

std::vector<Obs>
runSerial()
{
    Simulator sim(42);
    std::vector<Obs> log;
    seedWorkload([&sim](int) -> Simulator & { return sim; }, log);
    sim.runUntil(1000);
    return log;
}

std::vector<Obs>
runMerge(int shards)
{
    ShardedSimulator engine(shards, 42);
    std::vector<Obs> log;
    seedWorkload(
        [&engine, shards](int tag) -> Simulator & {
            return engine.shard(static_cast<ShardId>(tag % shards));
        },
        log);
    engine.runUntil(1000);
    return log;
}

TEST(ShardedSimulator, MergeOneShardMatchesSerial)
{
    EXPECT_EQ(runMerge(1), runSerial());
}

TEST(ShardedSimulator, MergeManyShardsMatchesSerial)
{
    // The shared insertion counter makes the global execution order
    // identical to the serial single-queue kernel for any K.
    EXPECT_EQ(runMerge(2), runSerial());
    EXPECT_EQ(runMerge(3), runSerial());
    EXPECT_EQ(runMerge(8), runSerial());
}

TEST(ShardedSimulator, MergeSkewedPartitionMatchesSerial)
{
    // All events landing on shard 0 keeps the merge loop permanently
    // in its single-nonempty-shard fast path (the K-way key compare
    // is skipped); the observed stream must still equal the serial
    // run for every shard count.
    std::vector<Obs> serial = runSerial();
    for (int shards : {1, 2, 4, 8}) {
        ShardedSimulator engine(shards, 42);
        std::vector<Obs> log;
        seedWorkload(
            [&engine](int) -> Simulator & { return engine.shard(0); },
            log);
        engine.runUntil(1000);
        EXPECT_EQ(log, serial) << "shards=" << shards;
        for (int s = 1; s < shards; ++s)
            EXPECT_EQ(engine.shardStats(static_cast<ShardId>(s))
                          .events,
                      0u);
    }
}

TEST(ShardedSimulator, MergeDrainingTailUsesFastPathCorrectly)
{
    // A cross-shard cascade that collapses onto one shard: the loop
    // crosses from the K-way compare into the fast path mid-run and
    // the tail events still execute in time order.
    ShardedSimulator engine(4, 7);
    std::vector<int> order;
    // Shards 1..3 each fire once early, then everything funnels into
    // shard 0, which reschedules itself several times.
    for (int s = 1; s < 4; ++s) {
        engine.shard(static_cast<ShardId>(s))
            .scheduleAt(s, [&order, s] { order.push_back(s); });
    }
    std::function<void(int)> chain = [&](int depth) {
        order.push_back(100 + depth);
        if (depth < 5) {
            engine.shard(0).schedule(10, [&chain, depth] {
                chain(depth + 1);
            });
        }
    };
    engine.shard(0).scheduleAt(10, [&chain] { chain(0); });
    engine.runUntil(1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 100, 101, 102, 103,
                                       104, 105}));
}

TEST(ShardedSimulator, MergeEqualTimeTiesFollowScheduleOrder)
{
    // Same time, same priority, alternating shards: execution must
    // follow global schedule order exactly, as one queue would.
    ShardedSimulator engine(4, 1);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        engine.shard(static_cast<ShardId>(i % 4))
            .scheduleAt(100, [&order, i] { order.push_back(i); });
    engine.runUntil(100);
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ShardedSimulator, MergePriorityTiesAcrossShards)
{
    // Same time, priorities descending across different shards:
    // lower priority value fires first regardless of shard or
    // insertion order.
    ShardedSimulator engine(3, 1);
    std::vector<int> order;
    for (int i = 0; i < 9; ++i)
        engine.shard(static_cast<ShardId>(i % 3))
            .scheduleAt(
                50, [&order, i] { order.push_back(i); }, 9 - i);
    engine.runUntil(60);
    ASSERT_EQ(order.size(), 9u);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 8 - i);
}

TEST(ShardedSimulator, MergeCancelCrossShardInFlight)
{
    // An event scheduled into another shard's queue, then cancelled
    // before it fires, must leave only a reclaimed tombstone behind:
    // never executed, not counted pending, and the queue still
    // delivers its neighbors at the same (time, priority).
    ShardedSimulator engine(2, 7);
    int fired = 0;
    bool victim_fired = false;
    engine.shard(1).scheduleAt(10, [&fired] { ++fired; });
    EventId victim = engine.shard(1).scheduleAt(
        10, [&victim_fired] { victim_fired = true; });
    engine.shard(1).scheduleAt(10, [&fired] { ++fired; });
    engine.shard(0).scheduleAt(5, [&engine, victim] {
        EXPECT_TRUE(engine.shard(1).cancel(victim));
        EXPECT_FALSE(engine.shard(1).cancel(victim)); // once only
    });
    engine.runUntil(20);
    EXPECT_FALSE(victim_fired);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.eventsProcessed(), 3u);
}

TEST(ShardedSimulator, MergeStopMidRun)
{
    ShardedSimulator engine(2, 1);
    int ran = 0;
    for (int i = 0; i < 10; ++i)
        engine.shard(static_cast<ShardId>(i % 2))
            .scheduleAt(i, [&engine, &ran] {
                if (++ran == 4)
                    engine.stop();
            });
    engine.runUntil(100);
    EXPECT_EQ(ran, 4);
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_EQ(engine.pendingEvents(), 6u);
    // A later run picks up the remaining events.
    engine.runUntil(100);
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(engine.now(), 100);
}

TEST(ShardedSimulator, RunUntilAdvancesAllShardClocks)
{
    ShardedSimulator engine(3, 1);
    engine.shard(2).scheduleAt(7, [] {});
    engine.runUntil(500);
    for (ShardId s = 0; s < 3; ++s)
        EXPECT_EQ(engine.shard(s).now(), 500);
    engine.runUntil(800);
    EXPECT_EQ(engine.now(), 800);
}

TEST(ShardedSimulator, PostOutsideRunSchedulesDirectly)
{
    ShardedSimulator engine(2, 1);
    bool ran = false;
    engine.post(0, 1, 25, 0, [&ran] { ran = true; });
    EXPECT_EQ(engine.shard(1).pendingEvents(), 1u);
    engine.runUntil(30);
    EXPECT_TRUE(ran);
    EXPECT_EQ(engine.shardStats(0).cross_sent, 1u);
    EXPECT_EQ(engine.shardStats(1).cross_received, 1u);
}

TEST(ShardedSimulator, MergePostDeliversInsideRun)
{
    // Merge runs on one thread, so an event may post to any shard;
    // the delivery runs in the same run and is counted per edge.
    ShardedSimulator engine(3, 1);
    SimTime delivered_at = -1;
    engine.shard(1).scheduleAt(10, [&engine, &delivered_at] {
        engine.post(1, 2, 15, 0, [&engine, &delivered_at] {
            delivered_at = engine.shard(2).now();
        });
    });
    engine.runUntil(20);
    EXPECT_EQ(delivered_at, 15);
    EXPECT_EQ(engine.shardStats(1).cross_sent, 1u);
    EXPECT_EQ(engine.shardStats(2).cross_received, 1u);
}

ShardedSimulator::Options
modeOpts(ShardExecMode mode)
{
    ShardedSimulator::Options o;
    o.mode = mode;
    return o;
}

TEST(ShardedSimulator, ThreadedCrossShardPostPanicsNamingBothShards)
{
    ShardedSimulator engine(3, 1, modeOpts(ShardExecMode::Threaded));
    engine.shard(1).scheduleAt(10, [&engine] {
        engine.post(1, 2, 20, 0, [] {});
    });
    try {
        engine.runUntil(100);
        FAIL() << "a cross-shard post in a threaded run must panic";
    } catch (const PanicError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("shard 1 sent to shard 2"),
                  std::string::npos)
            << what;
    }
    EXPECT_FALSE(engine.running());
    EXPECT_EQ(engine.shard(2).pendingEvents(), 0u);
    // Posts to a shard's own queue stay legal.
    engine.post(2, 2, 200, 0, [] {});
    EXPECT_EQ(engine.shard(2).pendingEvents(), 1u);
}

/**
 * Closed-shard workload: shard s runs a private chain with period
 * 3 + s, never posting across shards, and logs only its own
 * executions, so threaded runs are race-free.  The chain stops at
 * @p last.
 */
struct Chains
{
    ShardedSimulator engine;
    std::vector<std::vector<SimTime>> log;
    std::vector<std::function<void()>> step;

    Chains(ShardExecMode mode, int k, SimTime last = kMaxSimTime)
        : engine(k, 3, modeOpts(mode)),
          log(static_cast<std::size_t>(k)),
          step(static_cast<std::size_t>(k))
    {
        for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
            step[s] = [this, s, last] {
                Simulator &sim = engine.shard(s);
                log[s].push_back(sim.now());
                SimDuration period = 3 + static_cast<SimDuration>(s);
                if (sim.now() + period <= last)
                    sim.schedule(period, [this, s] { step[s](); });
            };
            engine.shard(s).scheduleAt(static_cast<SimTime>(s),
                                       [this, s] { step[s](); });
        }
    }
};

std::vector<std::vector<SimTime>>
runChains(ShardExecMode mode, int k)
{
    Chains c(mode, k);
    for (SimTime until : {100, 250, 400})
        c.engine.runUntil(until);
    EXPECT_EQ(c.engine.now(), 400);
    return c.log;
}

TEST(ShardedSimulator, ThreadedMatchesMergeOnClosedShards)
{
    for (int k : {2, 4}) {
        auto merge = runChains(ShardExecMode::Merge, k);
        auto threaded = runChains(ShardExecMode::Threaded, k);
        EXPECT_EQ(threaded, merge) << k << " shards";
        EXPECT_EQ(threaded[1].back(), 397) << k << " shards"; // 1+4*99
    }
}

TEST(ShardedSimulator, ThreadedRunsAreDeterministic)
{
    auto first = runChains(ShardExecMode::Threaded, 4);
    for (int rep = 0; rep < 5; ++rep)
        EXPECT_EQ(runChains(ShardExecMode::Threaded, 4), first);
}

TEST(ShardedSimulator, ThreadedTakesOneRoundPerRun)
{
    Chains merge(ShardExecMode::Merge, 4);
    Chains threaded(ShardExecMode::Threaded, 4);
    for (SimTime until : {100, 250, 400}) {
        merge.engine.runUntil(until);
        threaded.engine.runUntil(until);
    }
    EXPECT_EQ(merge.engine.rounds(), 0u); // merge has no rounds
    EXPECT_EQ(threaded.engine.rounds(), 3u); // one per runUntil()
    std::uint64_t events = 0;
    for (ShardId s = 0; s < 4; ++s) {
        const auto &st = threaded.engine.shardStats(s);
        events += st.events;
        EXPECT_EQ(st.rounds, 3u);
        EXPECT_EQ(st.stalled_rounds, 0u);
        EXPECT_EQ(st.cross_sent, 0u);
    }
    EXPECT_EQ(events, threaded.engine.eventsProcessed());
}

TEST(ShardedSimulator, ThreadedRecordsBarrierWait)
{
    // Every worker times its wait for the slowest shard; with two or
    // more shards at least one of them waits a measurable time.
    for (int k : {2, 4}) {
        Chains c(ShardExecMode::Threaded, k);
        c.engine.runUntil(1000);
        std::uint64_t wait_ns = 0;
        for (ShardId s = 0; s < static_cast<ShardId>(k); ++s)
            wait_ns += c.engine.shardStats(s).barrier_wait_ns;
        EXPECT_GT(wait_ns, 0u) << k << " shards";
    }
}

TEST(ShardedSimulator, ThreadedStopMidRun)
{
    // Shard 1 requests a stop partway through its events; the run
    // must end promptly, leave the un-run events pending, and a
    // follow-up run must finish them.
    ShardedSimulator engine(2, 1, modeOpts(ShardExecMode::Threaded));
    int ran = 0;
    for (int i = 0; i < 50; ++i)
        engine.shard(1).scheduleAt(i, [&engine, &ran] {
            if (++ran == 10)
                engine.stop();
        });
    engine.runUntil(1000);
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(engine.pendingEvents(), 40u);
    engine.runUntil(1000);
    EXPECT_EQ(ran, 50);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.now(), 1000);
}

TEST(ShardedSimulator, ThreadedShardLocalStopPropagates)
{
    // Model code calling its own shard kernel's stop() must end the
    // whole engine run, like the serial kernel's stop().
    ShardedSimulator engine(2, 1, modeOpts(ShardExecMode::Threaded));
    int ran = 0;
    for (int i = 0; i < 20; ++i)
        engine.shard(1).scheduleAt(i, [&engine, &ran] {
            if (++ran == 5)
                engine.shard(1).stop();
        });
    engine.runUntil(1000);
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(engine.shard(1).now(), 4);
    engine.runUntil(1000);
    EXPECT_EQ(ran, 20);
}

TEST(ShardedSimulator, ThreadedDrainRun)
{
    for (ShardExecMode mode :
         {ShardExecMode::Merge, ShardExecMode::Threaded}) {
        Chains c(mode, 3, 60);
        c.engine.run();
        EXPECT_EQ(c.engine.pendingEvents(), 0u);
        EXPECT_EQ(c.log[2].size(), 12u); // 2, 7, ..., 57
        EXPECT_EQ(c.log[2].back(), 57);
        // A threaded drain leaves each clock at its own shard's last
        // event; merge keeps one global clock at the last event.
        for (ShardId s = 0; s < 3; ++s)
            EXPECT_EQ(c.engine.shard(s).now(),
                      mode == ShardExecMode::Threaded ? c.log[s].back()
                                                      : 60);
    }
}

TEST(ShardedSimulator, SingleShardSeedMatchesPlainSimulator)
{
    // Shard 0 must carry the caller's seed unchanged so engine-based
    // model construction reproduces serial RNG streams exactly.
    Simulator plain(1234);
    ShardedSimulator engine(4, 1234);
    EXPECT_EQ(plain.rng().fork().uniformInt(0, 1 << 30),
              engine.shard(0).rng().fork().uniformInt(0, 1 << 30));
}

TEST(ShardedSimulator, ShardIdAndOwnerAreWired)
{
    ShardedSimulator engine(3, 1);
    for (ShardId s = 0; s < 3; ++s) {
        EXPECT_EQ(engine.shard(s).shardId(), s);
        EXPECT_EQ(engine.shard(s).shardOwner(), &engine);
    }
    Simulator standalone(1);
    EXPECT_EQ(standalone.shardId(), 0u);
    EXPECT_EQ(standalone.shardOwner(), nullptr);
}

} // namespace
} // namespace vcp

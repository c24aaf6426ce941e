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

TEST(ShardedSimulator, PostEnforcesLookaheadPromise)
{
    ShardedSimulator::Options opts;
    opts.lookahead = 10;
    ShardedSimulator engine(2, 1, opts);
    EXPECT_THROW(engine.post(0, 1, 5, 0, [] {}), PanicError);
    engine.post(0, 1, 10, 0, [] {}); // exactly at the promise: fine
}

TEST(ShardedSimulator, PostSaturatesHugeLookahead)
{
    // now + lookahead would overflow SimTime; the promise check must
    // saturate instead and still reject the send.
    ShardedSimulator engine(2, 1);
    engine.setLookahead(0, kMaxSimTime - 5);
    engine.runUntil(100);
    EXPECT_THROW(engine.post(0, 1, 200, 0, [] {}), PanicError);
    EXPECT_EQ(engine.shard(1).pendingEvents(), 0u);
}

TEST(ShardedSimulator, ClosedShardPostPanicsNamingTheShard)
{
    ShardedSimulator engine(3, 1);
    engine.setLookahead(2, ShardedSimulator::kNoSends);
    try {
        engine.post(2, 0, 50, 0, [] {});
        FAIL() << "post from a closed shard must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("shard 2 is closed"),
                  std::string::npos)
            << e.what();
    }
    // Local posts and posts from open shards stay legal.
    engine.post(2, 2, 50, 0, [] {});
    engine.post(0, 2, 50, 0, [] {});
    EXPECT_EQ(engine.shard(2).pendingEvents(), 2u);
}

TEST(ShardedSimulator, NegativeLookaheadPanics)
{
    ShardedSimulator engine(2, 1);
    EXPECT_THROW(engine.setLookahead(1, -1), PanicError);
    EXPECT_EQ(engine.lookahead(1), 0);
}

ShardedSimulator::Options
threadedOpts(SimDuration la)
{
    ShardedSimulator::Options o;
    o.mode = ShardExecMode::Threaded;
    o.lookahead = la;
    return o;
}

/**
 * Shard-closed ring workload: every shard keeps a local counter and
 * forwards a token to the next shard `hop` ticks ahead.  Each shard
 * logs only its own executions, so threaded runs race-free.
 */
struct RingState
{
    std::vector<std::uint64_t> count;
    std::vector<std::vector<SimTime>> log;
};

void
pump(ShardedSimulator &engine, RingState &st, ShardId s, int k,
     SimDuration hop, SimTime until)
{
    Simulator &sim = engine.shard(s);
    ++st.count[s];
    st.log[s].push_back(sim.now());
    SimTime next = sim.now() + hop;
    if (next > until)
        return;
    ShardId dst = static_cast<ShardId>((s + 1) % k);
    engine.post(s, dst, next, 0,
                [&engine, &st, dst, k, hop, until] {
                    pump(engine, st, dst, k, hop, until);
                });
}

RingState
runRing(int k, ShardExecMode mode, SimTime until)
{
    ShardedSimulator::Options o;
    o.mode = mode;
    o.lookahead = 3;
    ShardedSimulator engine(k, 11, o);
    RingState st;
    st.count.assign(static_cast<std::size_t>(k), 0);
    st.log.assign(static_cast<std::size_t>(k), {});
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s)
        engine.shard(s).scheduleAt(
            static_cast<SimTime>(s), [&engine, &st, s, k, until] {
                pump(engine, st, s, k, 3, until);
            });
    engine.runUntil(until);
    EXPECT_EQ(engine.now(), until);
    return st;
}

TEST(ShardedSimulator, ThreadedMatchesMergeOnShardClosedWorkload)
{
    for (int k : {2, 4}) {
        RingState merge = runRing(k, ShardExecMode::Merge, 400);
        RingState threaded =
            runRing(k, ShardExecMode::Threaded, 400);
        EXPECT_EQ(merge.count, threaded.count) << k << " shards";
        EXPECT_EQ(merge.log, threaded.log) << k << " shards";
    }
}

TEST(ShardedSimulator, ThreadedRunsAreDeterministic)
{
    RingState a = runRing(4, ShardExecMode::Threaded, 600);
    RingState b = runRing(4, ShardExecMode::Threaded, 600);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.log, b.log);
}

TEST(ShardedSimulator, ThreadedEqualTimeCrossTiesAreDeterministic)
{
    // Two source shards each post a burst to shard 0 at the same
    // (time, priority).  Cross ties must resolve by (source shard,
    // source sequence) — identically on every run, whatever the
    // thread interleaving was.
    auto run = [] {
        ShardedSimulator engine(3, 5, threadedOpts(0));
        auto order = std::make_shared<std::vector<int>>();
        for (ShardId src : {ShardId(1), ShardId(2)})
            engine.shard(src).scheduleAt(
                10, [&engine, src, order] {
                    for (int i = 0; i < 4; ++i)
                        engine.post(
                            src, 0, 50, 0,
                            [order, src, i] {
                                order->push_back(
                                    static_cast<int>(src) * 10 + i);
                            });
                });
        engine.runUntil(100);
        return *order;
    };
    std::vector<int> first = run();
    ASSERT_EQ(first.size(), 8u);
    // Source shard 1's burst precedes shard 2's; bursts stay FIFO.
    EXPECT_EQ(first, (std::vector<int>{10, 11, 12, 13, 20, 21, 22,
                                       23}));
    for (int rep = 0; rep < 10; ++rep)
        EXPECT_EQ(run(), first);
}

TEST(ShardedSimulator, ThreadedStopMidHorizon)
{
    // Shard 1 requests a stop partway through a long horizon window;
    // the run must end promptly, leave the un-run events pending,
    // and a follow-up run must finish them.
    ShardedSimulator engine(2, 1, threadedOpts(0));
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
}

TEST(ShardedSimulator, ThreadedShardLocalStopPropagates)
{
    // Model code calling its own shard kernel's stop() must end the
    // whole engine run, like the serial kernel's stop().
    ShardedSimulator engine(2, 1, threadedOpts(0));
    bool later_ran = false;
    engine.shard(1).scheduleAt(
        5, [&engine] { engine.shard(1).stop(); });
    engine.shard(0).scheduleAt(500,
                               [&later_ran] { later_ran = true; });
    engine.runUntil(1000);
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_FALSE(later_ran);
}

TEST(ShardedSimulator, ThreadedDrainRun)
{
    ShardedSimulator engine(3, 1, threadedOpts(2));
    std::vector<std::uint64_t> hits(3, 0);
    for (ShardId s = 0; s < 3; ++s)
        engine.shard(s).scheduleAt(
            static_cast<SimTime>(1 + s), [&engine, &hits, s] {
                ++hits[s];
                engine.post(s, static_cast<ShardId>((s + 1) % 3),
                            engine.shard(s).now() + 4, 0,
                            [&hits, s] { ++hits[(s + 1) % 3]; });
            });
    engine.run();
    EXPECT_EQ(engine.pendingEvents(), 0u);
    for (ShardId s = 0; s < 3; ++s)
        EXPECT_EQ(hits[s], 2u) << "shard " << s;
    EXPECT_EQ(engine.eventsProcessed(), 6u);
}

/**
 * Closed-shard workload: shard s runs a private chain with period
 * 3 + s and never posts.  Returns each shard's log of executed times
 * after three runUntil() steps.
 */
std::vector<std::vector<SimTime>>
runClosedChains(ShardExecMode mode, int k, std::uint64_t *rounds,
                std::uint64_t *stalled)
{
    ShardedSimulator::Options o;
    o.mode = mode;
    ShardedSimulator engine(k, 3, o);
    std::vector<std::vector<SimTime>> log(static_cast<std::size_t>(k));
    std::vector<std::function<void()>> step(log.size());
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
        engine.setLookahead(s, ShardedSimulator::kNoSends);
        step[s] = [&engine, &log, &step, s] {
            Simulator &sim = engine.shard(s);
            log[s].push_back(sim.now());
            sim.schedule(3 + static_cast<SimDuration>(s),
                         [&step, s] { step[s](); });
        };
        engine.shard(s).scheduleAt(static_cast<SimTime>(s),
                                   [&step, s] { step[s](); });
    }
    for (SimTime until : {100, 250, 400})
        engine.runUntil(until);
    *rounds = engine.rounds();
    *stalled = 0;
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s)
        *stalled += engine.shardStats(s).stalled_rounds;
    return log;
}

TEST(ShardedSimulator, ThreadedClosedShardsTakeOneRoundPerRun)
{
    std::uint64_t rounds = 0, stalled = 0;
    auto merge =
        runClosedChains(ShardExecMode::Merge, 4, &rounds, &stalled);
    EXPECT_EQ(rounds, 0u); // merge execution has no rounds
    auto threaded =
        runClosedChains(ShardExecMode::Threaded, 4, &rounds, &stalled);
    EXPECT_EQ(rounds, 3u); // one per runUntil()
    EXPECT_EQ(stalled, 0u);
    EXPECT_EQ(threaded, merge);
    EXPECT_EQ(threaded[3].back(), 399); // 3 + 6 * 66
}

TEST(ShardedSimulator, ThreadedZeroLookaheadPostAtUntilRunsSameRun)
{
    // An event at exactly `until` posts to another shard for `until`
    // over a zero-lookahead edge: that delivery is still due in this
    // run, so termination must wait for it.
    ShardedSimulator engine(2, 1, threadedOpts(0));
    bool delivered = false;
    engine.shard(1).scheduleAt(100, [&engine, &delivered] {
        engine.post(1, 0, 100, 0, [&engine, &delivered] {
            delivered = engine.shard(0).now() == 100;
        });
    });
    engine.runUntil(100);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.mailboxBacklog(0), 0u);
    EXPECT_EQ(engine.shardStats(0).cross_received, 1u);
}

TEST(ShardedSimulator, ThreadedRecordsShardStats)
{
    ShardedSimulator engine(2, 1, threadedOpts(3));
    RingState st;
    st.count.assign(2, 0);
    st.log.assign(2, {});
    engine.shard(0).scheduleAt(0, [&engine, &st] {
        pump(engine, st, 0, 2, 3, 60);
    });
    engine.runUntil(60);
    EXPECT_GT(engine.rounds(), 0u);
    std::uint64_t events = 0;
    for (ShardId s = 0; s < 2; ++s) {
        events += engine.shardStats(s).events;
        EXPECT_GT(engine.shardStats(s).rounds, 0u);
    }
    EXPECT_EQ(events, engine.eventsProcessed());
    EXPECT_GT(engine.shardStats(0).cross_sent, 0u);
    EXPECT_GT(engine.shardStats(1).cross_received, 0u);
    // Executed-window collection (the tracer's shardN.window lanes)
    // only exists in threaded runs; windows must be well-formed.
    for (ShardId s = 0; s < 2; ++s) {
        EXPECT_FALSE(engine.shardWindows(s).empty());
        for (const ShardedSimulator::Window &w :
             engine.shardWindows(s))
            EXPECT_LE(w.start, w.end);
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

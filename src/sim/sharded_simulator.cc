#include "sim/sharded_simulator.hh"

#include <barrier>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"

namespace vcp {

namespace {

/** Executing shard of this thread (post() routing and assertions). */
thread_local ShardId tls_shard = ~ShardId(0);

} // namespace

const char *
shardExecModeName(ShardExecMode m)
{
    switch (m) {
    case ShardExecMode::Merge:
        return "merge";
    case ShardExecMode::Threaded:
        return "threaded";
    }
    return "?";
}

ShardedSimulator::ShardedSimulator(int num_shards, std::uint64_t seed)
    : ShardedSimulator(num_shards, seed, Options{})
{}

ShardedSimulator::ShardedSimulator(int num_shards, std::uint64_t seed,
                                   const Options &opts)
    : opts_(opts)
{
    if (num_shards < 1)
        num_shards = 1;
    if (num_shards > 128)
        panic("ShardedSimulator: %d shards exceeds the limit of 128 "
              "(a threaded run starts one worker per shard)",
              num_shards);
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
        // Shard 0 carries the caller's seed unchanged so a one-shard
        // engine is bit-equivalent to a plain Simulator(seed);
        // further shards fork independent streams by index.
        std::uint64_t sh_seed =
            s == 0 ? seed
                   : ParallelSweepRunner::forkSeed(
                         seed, static_cast<std::uint64_t>(s));
        auto sh = std::make_unique<Shard>(sh_seed);
        sh->sim.shard_id = static_cast<ShardId>(s);
        sh->sim.owner = this;
        shards_.push_back(std::move(sh));
    }
    if (opts_.mode == ShardExecMode::Merge) {
        // One insertion counter across every queue reproduces the
        // serial kernel's global event order bit-for-bit.
        for (auto &sh : shards_)
            sh->sim.setSeqCounter(&shared_seq_);
    }
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator &
ShardedSimulator::shard(ShardId s)
{
    if (s >= shards_.size())
        panic("ShardedSimulator::shard: %u out of range (%d shards)",
              s, numShards());
    return shards_[s]->sim;
}

const Simulator &
ShardedSimulator::shard(ShardId s) const
{
    if (s >= shards_.size())
        panic("ShardedSimulator::shard: %u out of range (%d shards)",
              s, numShards());
    return shards_[s]->sim;
}

ShardId
ShardedSimulator::currentShard()
{
    return tls_shard;
}

std::uint64_t
ShardedSimulator::eventsProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->sim.eventsProcessed();
    return n;
}

std::size_t
ShardedSimulator::pendingEvents() const
{
    std::size_t n = 0;
    for (const auto &sh : shards_)
        n += sh->sim.pendingEvents();
    return n;
}

const ShardedSimulator::ShardStats &
ShardedSimulator::shardStats(ShardId s) const
{
    return shards_.at(s)->stats;
}

void
ShardedSimulator::stop()
{
    stopping_.store(true, std::memory_order_release);
}

void
ShardedSimulator::post(ShardId src, ShardId dst, SimTime when,
                       int priority, InlineAction action)
{
    if (src >= shards_.size() || dst >= shards_.size())
        panic("ShardedSimulator::post: shard out of range "
              "(src %u, dst %u of %d)",
              src, dst, numShards());
    if (src != dst) {
        if (running_.load(std::memory_order_relaxed) &&
            opts_.mode == ShardExecMode::Threaded)
            panic("ShardedSimulator::post: shard %u sent to shard %u "
                  "during a threaded run (threaded shards are closed)",
                  src, dst);
        ++shards_[src]->stats.cross_sent;
        ++shards_[dst]->stats.cross_received;
    }
    shards_[dst]->sim.scheduleAt(when, std::move(action), priority);
}

void
ShardedSimulator::runUntil(SimTime until)
{
    for (const auto &sh : shards_)
        if (until < sh->sim.now())
            panic("ShardedSimulator::runUntil: target %lld is in "
                  "shard %u's past (now %lld)",
                  static_cast<long long>(until), sh->sim.shardId(),
                  static_cast<long long>(sh->sim.now()));
    if (running_.exchange(true))
        panic("ShardedSimulator: re-entrant run");
    stopping_.store(false);
    if (shards_.size() == 1 || opts_.mode == ShardExecMode::Merge)
        runMergeUntil(until, /*drain=*/false);
    else
        runThreadedUntil(until);
    running_.store(false);
}

void
ShardedSimulator::run()
{
    if (running_.exchange(true))
        panic("ShardedSimulator: re-entrant run");
    stopping_.store(false);
    if (shards_.size() == 1 || opts_.mode == ShardExecMode::Merge)
        runMergeUntil(kMaxSimTime, /*drain=*/true);
    else
        runThreadedUntil(kMaxSimTime);
    running_.store(false);
}

void
ShardedSimulator::runMergeUntil(SimTime until, bool drain)
{
    const std::size_t K = shards_.size();
    if (K == 1) {
        // One shard IS the serial kernel; use its tight loop.
        Shard &sh = *shards_[0];
        std::uint64_t before = sh.sim.eventsProcessed();
        if (drain)
            sh.sim.run();
        else
            sh.sim.runUntil(until);
        sh.stats.events += sh.sim.eventsProcessed() - before;
        if (sh.sim.stopRequested())
            stopping_.store(true);
        return;
    }
    for (auto &sh : shards_)
        sh->sim.stopping = false;
    for (;;) {
        // Fast path: when exactly one shard has pending events its
        // head is globally minimal by construction, so the K-way key
        // compare below is pure overhead.  This is the common regime
        // late in a run (or with skewed partitions); cross-shard
        // posts can repopulate any queue after any event, so the
        // census is redone each iteration.
        std::size_t only = K, nonempty = 0;
        for (std::size_t s = 0; s < K; ++s) {
            if (shards_[s]->sim.pendingEvents() == 0)
                continue;
            only = s;
            if (++nonempty > 1)
                break;
        }
        if (nonempty == 0)
            break;
        std::size_t best;
        std::uint64_t bk1 = 0, bk2 = 0;
        if (nonempty == 1) {
            best = only;
            shards_[best]->sim.peekKey(bk1, bk2);
        } else {
            // Globally minimal (time, priority, sequence) across all
            // shard queues; the shared counter makes the sequence
            // part a total order identical to the serial
            // single-queue run.
            best = K;
            for (std::size_t s = 0; s < K; ++s) {
                std::uint64_t k1, k2;
                if (!shards_[s]->sim.peekKey(k1, k2))
                    continue;
                if (best == K || k1 < bk1 ||
                    (k1 == bk1 && k2 < bk2)) {
                    best = s;
                    bk1 = k1;
                    bk2 = k2;
                }
            }
            if (best == K)
                break;
        }
        SimTime t = static_cast<SimTime>(bk1 >> 16);
        if (!drain && t > until)
            break;
        // One global clock: every shard observes the event's time,
        // exactly as the serial kernel would — model code may legally
        // reach across shards inside this event.
        for (auto &sh : shards_)
            sh->sim.forceClock(t);
        Shard &ex = *shards_[best];
        tls_shard = static_cast<ShardId>(best);
        ex.sim.executeNext();
        ++ex.stats.events;
        if (ex.sim.stopRequested() ||
            stopping_.load(std::memory_order_relaxed)) {
            stopping_.store(true);
            break;
        }
    }
    tls_shard = kNoShard;
    if (!drain && !stopping_.load())
        for (auto &sh : shards_)
            sh->sim.forceClock(until);
}

void
ShardedSimulator::runThreadedUntil(SimTime until)
{
    const std::size_t K = shards_.size();
    for (auto &sh : shards_)
        sh->sim.stopping = false;
    std::barrier<> done(static_cast<std::ptrdiff_t>(K));
    std::vector<std::thread> threads;
    threads.reserve(K - 1);
    for (ShardId s = 1; s < K; ++s)
        threads.emplace_back(
            [this, s, until, &done] { worker(s, until, done); });
    worker(0, until, done);
    for (std::thread &t : threads)
        t.join();
    // An event that threw on a worker (say, a panicking cross-shard
    // post) ends the run and resurfaces here, on the caller's thread.
    for (auto &sh : shards_) {
        if (sh->error) {
            std::exception_ptr e = std::exchange(sh->error, nullptr);
            running_.store(false);
            std::rethrow_exception(e);
        }
    }
    // A drain run (until == kMaxSimTime) leaves each clock at its
    // shard's last event, matching serial run() semantics.
    if (until != kMaxSimTime && !stopping_.load())
        for (auto &sh : shards_)
            sh->sim.forceClock(until);
}

void
ShardedSimulator::worker(ShardId s, SimTime until, std::barrier<> &done)
{
    Shard &sh = *shards_[s];
    tls_shard = s;
    std::uint64_t before = sh.sim.eventsProcessed();
    try {
        while (!stopping_.load(std::memory_order_relaxed) &&
               !sh.sim.stopRequested()) {
            SimTime nt = sh.sim.nextEventTime();
            if (nt == kMaxSimTime || nt > until)
                break;
            sh.sim.executeNext();
        }
    } catch (...) {
        sh.error = std::current_exception();
        stopping_.store(true, std::memory_order_release);
    }
    if (sh.sim.stopRequested())
        stopping_.store(true, std::memory_order_release);
    sh.stats.events += sh.sim.eventsProcessed() - before;
    ++sh.stats.rounds;
    tls_shard = kNoShard;
    // Wall-clock time spent waiting for the slowest shard, attributed
    // to this shard — the load-imbalance signal.
    auto t0 = std::chrono::steady_clock::now();
    done.arrive_and_wait();
    auto dt = std::chrono::steady_clock::now() - t0;
    sh.stats.barrier_wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
            .count());
}

} // namespace vcp

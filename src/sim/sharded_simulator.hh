/**
 * @file
 * Sharded event execution inside one simulation run.
 *
 * A ShardedSimulator owns K per-shard kernels (each a full Simulator:
 * event queue, clock, RNG).  Two execution modes share them:
 *
 *  - **DeterministicMerge** (the oracle): one thread pops the
 *    globally minimal (time, priority, sequence) event across all K
 *    queues.  Sequence numbers come from one shared counter, so the
 *    execution order — and therefore every byte of model output — is
 *    identical to the classic single-queue serial kernel, for any K.
 *    Cross-shard model calls stay legal (it is one thread), which is
 *    what lets the single-management-server model run sharded.
 *
 *  - **Threaded**: fork-join over *closed* shards.  runUntil() starts
 *    one worker per shard; each runs its own kernel to `until` (or
 *    drains it), checking the stop flag between events, and the
 *    workers join.  There is no cross-shard messaging: a shard's
 *    events may touch only state owned by that shard, and a
 *    cross-shard post() during a Threaded run panics.  The
 *    share-nothing federation stacks (cloud/federation.hh) satisfy
 *    this; the single-server model does not (its pipeline helpers
 *    call host-agent and datastore centers synchronously) and
 *    therefore runs Merge.
 *
 * Merge stays the oracle Threaded runs are tested against.  See
 * DESIGN.md "Parallel kernel".
 */

#ifndef VCP_SIM_SHARDED_SIMULATOR_HH
#define VCP_SIM_SHARDED_SIMULATOR_HH

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/shard.hh"
#include "sim/simulator.hh"

namespace vcp {

/** How the per-shard event sets are executed. */
enum class ShardExecMode : std::uint8_t
{
    Merge,    ///< single-thread global merge; byte-identical to serial
    Threaded, ///< fork-join: one worker per closed shard
};

const char *shardExecModeName(ShardExecMode m);

/** K per-shard kernels run as one global merge or fork-join. */
class ShardedSimulator
{
  public:
    struct Options
    {
        ShardExecMode mode = ShardExecMode::Merge;
    };

    /** Per-shard execution counters. */
    struct ShardStats
    {
        std::uint64_t events = 0;
        /** Threaded runs this shard took part in. */
        std::uint64_t rounds = 0;
        /** Always 0: fork-join runs never stall on another shard.
         *  Kept for perfbench, its only reader. */
        std::uint64_t stalled_rounds = 0;
        std::uint64_t cross_sent = 0;
        std::uint64_t cross_received = 0;
        /** Wall-clock nanoseconds this shard's worker waited for the
         *  slowest shard at the end of each threaded run — the
         *  load-imbalance signal. */
        std::uint64_t barrier_wait_ns = 0;
    };

    /**
     * @param num_shards event-set shards; shard 0 is the control
     *        shard and its kernel is seeded with @p seed exactly like
     *        a plain Simulator (shards k>0 fork via splitmix64), so
     *        one-shard construction is bit-equivalent to the classic
     *        serial kernel.
     */
    explicit ShardedSimulator(int num_shards, std::uint64_t seed = 1);
    ShardedSimulator(int num_shards, std::uint64_t seed,
                     const Options &opts);
    ~ShardedSimulator();

    ShardedSimulator(const ShardedSimulator &) = delete;
    ShardedSimulator &operator=(const ShardedSimulator &) = delete;

    int numShards() const { return static_cast<int>(shards_.size()); }
    ShardExecMode mode() const { return opts_.mode; }

    /** Kernel facade of one shard (components bind to this). */
    Simulator &shard(ShardId s);
    const Simulator &shard(ShardId s) const;

    /**
     * Schedule @p action on shard @p dst at absolute time @p when on
     * behalf of shard @p src.  Outside a run, or in merge mode, this
     * is a plain deterministic scheduleAt that counts cross-shard
     * sends; during a Threaded run a cross-shard post panics, since
     * Threaded shards are closed.
     */
    void post(ShardId src, ShardId dst, SimTime when, int priority,
              InlineAction action);

    /**
     * Run all shards up to and including @p until, then set every
     * shard clock to @p until.  Returns early on stop().
     */
    void runUntil(SimTime until);

    /** Run until every queue drains (or stop()). */
    void run();

    /** Request the run to end at the next event.  In a Threaded run
     *  each shard stops at its own next event boundary. */
    void stop();
    bool stopRequested() const { return stopping_.load(); }

    /** True while runUntil()/run() is executing. */
    bool running() const { return running_.load(); }

    /** Executing shard of the calling thread, or kNoShard outside
     *  event execution. */
    static constexpr ShardId kNoShard = ~ShardId(0);
    static ShardId currentShard();

    /** Control-shard clock (== until after a completed runUntil). */
    SimTime now() const { return shard(0).now(); }

    /** Events executed across all shards. */
    std::uint64_t eventsProcessed() const;

    /** Live pending events across all shards (quiescent only). */
    std::size_t pendingEvents() const;

    const ShardStats &shardStats(ShardId s) const;

    /** Threaded runs completed (one per runUntil()/run(); merge
     *  execution has none). */
    std::uint64_t rounds() const { return shards_[0]->stats.rounds; }

  private:
    struct Shard
    {
        Simulator sim;
        ShardStats stats;
        /** An exception an event threw on this shard's worker. */
        std::exception_ptr error;

        explicit Shard(std::uint64_t seed) : sim(seed) {}
    };

    void runMergeUntil(SimTime until, bool drain);
    void runThreadedUntil(SimTime until);
    void worker(ShardId s, SimTime until, std::barrier<> &done);

    Options opts_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Merge mode: one sequence counter shared by all queues. */
    std::uint64_t shared_seq_ = 0;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
};

} // namespace vcp

#endif // VCP_SIM_SHARDED_SIMULATOR_HH

/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A Simulator owns the clock and the pending-event set.  Model
 * components hold a reference to it and schedule callbacks; the run
 * loop advances simulated time to each event in order.  There is no
 * global singleton: multiple simulators can coexist (the test suite
 * relies on this).
 */

#ifndef VCP_SIM_SIMULATOR_HH
#define VCP_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/inline_action.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace vcp {

class ShardedSimulator;

/** Discrete-event simulation kernel: clock, event set, and root RNG. */
class Simulator
{
  public:
    /** @param seed root seed; all component RNGs should fork() from rng(). */
    explicit Simulator(std::uint64_t seed = 1)
        : root_rng(seed)
    {}

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    SimTime now() const { return current; }

    /**
     * Stable address of the clock, for log timestamping
     * (setLogClock): the pointer stays valid for the simulator's
     * lifetime and always reads the current tick.
     */
    const SimTime *nowPtr() const { return &current; }

    /**
     * Schedule a callback @p delay ticks from now.
     * @param delay non-negative delay; 0 runs after currently queued
     *        same-time events.
     * @param action the callback; captures up to
     *        InlineAction::kInlineSize bytes schedule allocation-free.
     * @param priority tie-break at equal time; lower fires first.
     */
    EventId schedule(SimDuration delay, InlineAction action,
                     int priority = 0);

    /** Schedule a callback at an absolute time >= now(). */
    EventId scheduleAt(SimTime when, InlineAction action,
                       int priority = 0);

    /** Cancel a pending event. @return true if it was still pending. */
    bool cancel(EventId id) { return events.cancel(id); }

    /** Run until the event set drains (or stop() is called). */
    void run();

    /**
     * Run all events with time <= @p until, then set the clock to
     * @p until.  Returns early if stop() is called.
     */
    void runUntil(SimTime until);

    /** Request the run loop to return after the current event. */
    void stop() { stopping = true; }

    /** @return true if a stop was requested and not yet consumed. */
    bool stopRequested() const { return stopping; }

    /** Number of events executed so far. */
    std::uint64_t eventsProcessed() const { return processed; }

    /** Number of live pending events. */
    std::size_t pendingEvents() const { return events.size(); }

    /** Root RNG; components should fork() their own stream from it. */
    Rng &rng() { return root_rng; }

    /** Firing time of the earliest pending event; kMaxSimTime when
     *  the queue is empty. */
    SimTime nextEventTime() { return events.nextTime(); }

    /** Shard index this kernel holds inside a ShardedSimulator
     *  (0 for a standalone simulator). */
    ShardId shardId() const { return shard_id; }

    /** Owning sharded engine; null for a standalone kernel. */
    ShardedSimulator *shardOwner() const { return owner; }

  private:
    friend class ShardedSimulator;

    /** Peek the earliest event's full (key1, key2) sort key without
     *  removing it; false when empty.  Merge-loop use only. */
    bool
    peekKey(std::uint64_t &key1, std::uint64_t &key2)
    {
        return events.peekKey(key1, key2);
    }

    /** Pop and execute exactly one event. @pre pending events. */
    void executeNext();

    /** Advance the clock without running events (run end /
     *  merge-mode global time). @pre t >= now(). */
    void
    forceClock(SimTime t)
    {
        current = t;
    }

    /** Route sequence numbers through a shared counter (merge). */
    void setSeqCounter(std::uint64_t *c) { events.setSeqCounter(c); }

    EventQueue events;
    SimTime current = 0;
    bool stopping = false;
    std::uint64_t processed = 0;
    Rng root_rng;
    ShardId shard_id = 0;
    ShardedSimulator *owner = nullptr;
};

} // namespace vcp

#endif // VCP_SIM_SIMULATOR_HH

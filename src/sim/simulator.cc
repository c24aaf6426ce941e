#include "sim/simulator.hh"

#include "sim/logging.hh"

namespace vcp {

EventId
Simulator::schedule(SimDuration delay, InlineAction action,
                    int priority)
{
    if (delay < 0)
        panic("Simulator::schedule: negative delay %lld",
              static_cast<long long>(delay));
    return events.push(current + delay, priority, std::move(action));
}

EventId
Simulator::scheduleAt(SimTime when, InlineAction action,
                      int priority)
{
    if (when < current)
        panic("Simulator::scheduleAt: time %lld is in the past (now %lld)",
              static_cast<long long>(when),
              static_cast<long long>(current));
    return events.push(when, priority, std::move(action));
}

void
Simulator::executeNext()
{
    InlineAction action = events.popAction(current);
    ++processed;
    action();
}

void
Simulator::run()
{
    stopping = false;
    while (!events.empty() && !stopping) {
        InlineAction action = events.popAction(current);
        ++processed;
        action();
    }
}

void
Simulator::runUntil(SimTime until)
{
    if (until < current)
        panic("Simulator::runUntil: target %lld is in the past (now %lld)",
              static_cast<long long>(until),
              static_cast<long long>(current));
    stopping = false;
    while (!events.empty() && !stopping && events.nextTime() <= until) {
        InlineAction action = events.popAction(current);
        ++processed;
        action();
    }
    if (!stopping)
        current = until;
}

} // namespace vcp

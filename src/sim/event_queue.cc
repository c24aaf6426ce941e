#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace vcp {

std::uint32_t
EventQueue::acquireSlot(InlineAction action)
{
    std::uint32_t s;
    if (free_head != kNil) {
        s = free_head;
        free_head = free_next[s];
    } else {
        s = static_cast<std::uint32_t>(slot_count++);
        if ((s & kSlotChunkMask) == 0)
            slot_chunks.emplace_back(
                new InlineAction[kSlotChunkSize]);
        gens.push_back(1);
        free_next.push_back(kNil);
    }
    free_next[s] = kInUse;
    slotRef(s) = std::move(action);
    return s;
}

void
EventQueue::releaseSlot(std::uint32_t s)
{
    // gens[s] keeps the departing occupant's seq; staleness and
    // cancel checks reject freed slots via free_next != kInUse, and
    // push() stamps the next occupant's seq on reuse.
    slotRef(s).reset();
    free_next[s] = free_head;
    free_head = s;
}

EventId
EventQueue::push(SimTime when, int priority, InlineAction action)
{
    auto seq = static_cast<std::uint32_t>(
        ext_seq ? (*ext_seq)++ : next_seq++);
    if (priority < -kPrioBias || priority >= kPrioBias)
        panic("EventQueue::push: priority %d out of 16-bit range",
              priority);
    if (when < 0 || when > kMaxWhen)
        panic("EventQueue::push: time %lld out of 47-bit range",
              static_cast<long long>(when));
    std::uint32_t s = acquireSlot(std::move(action));
    gens[s] = seq;
    Entry e;
    e.key1 = (static_cast<std::uint64_t>(when) << 16) |
        static_cast<std::uint16_t>(priority + kPrioBias);
    e.key2 = (static_cast<std::uint64_t>(seq) << 32) | s;
    heap.push_back(e); // reserves the space; siftUp re-places it
    siftUp(heap.size() - 1, e);
    return e.key2;
}

bool
EventQueue::peekKey(std::uint64_t &key1, std::uint64_t &key2)
{
    if (tombstones)
        dropStaleRoot();
    if (heap.empty())
        return false;
    key1 = heap[0].key1;
    key2 = heap[0].key2;
    return true;
}

bool
EventQueue::cancel(EventId id)
{
    std::uint32_t s = static_cast<std::uint32_t>(id);
    std::uint32_t seq = static_cast<std::uint32_t>(id >> 32);
    if (s >= gens.size() || free_next[s] != kInUse ||
        gens[s] != seq)
        return false;
    releaseSlot(s);
    ++tombstones;
    // Lazy deletion: once a third of the heap is dead weight, one
    // O(n) sweep rebuilds it from the live entries.
    if (tombstones >= 64 && tombstones * 3 >= heap.size())
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::size_t out = 0;
    for (const Entry &e : heap) {
        if (!stale(e))
            heap[out++] = e;
    }
    heap.resize(out);
    tombstones = 0;
    if (out <= 1)
        return;
    // Floyd heap construction, 4-ary: sift every parent down,
    // deepest first.
    for (std::size_t i = (out - 2) / kArity + 1; i-- > 0;)
        siftDown(i, heap[i]);
}

void
EventQueue::dropStaleRoot()
{
    while (!heap.empty() && stale(heap[0])) {
        popRoot();
        --tombstones;
    }
}

Event
EventQueue::pop()
{
    if (tombstones)
        dropStaleRoot();
    if (heap.empty())
        panic("EventQueue::pop on empty queue");
    Entry top = heap[0];
    Event ev;
    ev.when = top.when();
    ev.priority = unpackPriority(top.key1);
    ev.seq = top.key2 >> 32;
    ev.id = top.key2;
    ev.action = std::move(slotRef(top.slot()));
    releaseSlot(top.slot());
    popRoot();
    return ev;
}

InlineAction
EventQueue::popAction(SimTime &when)
{
    if (tombstones)
        dropStaleRoot();
    if (heap.empty())
        panic("EventQueue::popAction on empty queue");
    Entry top = heap[0];
    InlineAction action = std::move(slotRef(top.slot()));
    releaseSlot(top.slot());
    popRoot();
    when = top.when();
    return action;
}

void
EventQueue::popRoot()
{
    Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, last);
}

void
EventQueue::siftUp(std::size_t pos, Entry entry)
{
    while (pos > 0) {
        std::size_t parent = (pos - 1) / kArity;
        if (!entry.before(heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = entry;
}

void
EventQueue::siftDown(std::size_t pos, Entry entry)
{
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t first = kArity * pos + 1;
        if (first >= n)
            break;
        std::size_t best;
        if (first + kArity <= n) {
            // Full fan-out: tournament select compiles to branchless
            // conditional moves — the data-dependent "which child is
            // smallest" branches mispredict badly on random keys.
            std::size_t a =
                first + (heap[first + 1].before(heap[first]) ? 1 : 0);
            std::size_t b = first + 2 +
                (heap[first + 3].before(heap[first + 2]) ? 1 : 0);
            best = heap[b].before(heap[a]) ? b : a;
        } else {
            best = first;
            for (std::size_t c = first + 1; c < n; ++c) {
                if (heap[c].before(heap[best]))
                    best = c;
            }
        }
        if (!heap[best].before(entry))
            break;
        heap[pos] = heap[best];
        pos = best;
    }
    heap[pos] = entry;
}

} // namespace vcp

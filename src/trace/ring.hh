/**
 * @file
 * The span-record ring buffer: the lowest layer of the op-lifecycle
 * tracer.
 *
 * TraceRing is deliberately dependency-free (sim/types.hh only) and
 * header-only so that *any* layer — including src/sim, which the rest
 * of the trace subsystem sits above — can push records into it
 * without a link-time cycle.  Records are fixed-size PODs in a
 * fixed-capacity buffer allocated once up front; pushing is a bounds
 * check, a struct store, and an index increment.  When the buffer is
 * full the ring wraps, overwriting the oldest records (the export
 * keeps the most recent window; the exact per-phase aggregation in
 * SpanTracer is fed separately and never drops).
 */

#ifndef VCP_TRACE_RING_HH
#define VCP_TRACE_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/types.hh"

/** Hot-path guard: true when @p ring is attached and enabled. */
#define VCP_TRACE_ON(ring) ((ring) != nullptr && (ring)->enabled())

namespace vcp {

/** What one ring record describes. */
enum class SpanKind : std::uint8_t
{
    Op,      ///< whole-op span; scope=task id, op=op idx, name=error idx
    Phase,   ///< pipeline-phase span; scope=task id, name=phase idx
    Sub,     ///< sub-phase detail inside an op; scope=task id, name=interned
    Span,    ///< named span (deploy, lock wait, ...); name=interned id
    Instant, ///< zero-duration marker (placement decision, ...)
    Counter, ///< counter sample; value lives in the duration field
};

/**
 * One trace record.  32 bytes; the meaning of @c name and @c scope
 * depends on @c kind (see SpanKind).  All times are sim microseconds.
 */
struct alignas(16) SpanRecord
{
    SimTime start = 0;

    /** Span length, or the sampled value for Counter records. */
    std::int64_t duration = 0;

    /** Owning scope: task id, vApp id, or 0 when unscoped. */
    std::int64_t scope = 0;

    /** Phase index (Phase), error index (Op), or interned name id. */
    std::uint16_t name = 0;

    SpanKind kind = SpanKind::Op;

    /** Op-type index for Op/Phase records; 0xff otherwise. */
    std::uint8_t op = 0xff;

    std::uint8_t pad[4] = {};
};

static_assert(sizeof(SpanRecord) == 32, "keep ring records compact");

/** Fixed-capacity overwrite-oldest span buffer. */
class TraceRing
{
  public:
    /** @param capacity record slots; allocated once, up front. */
    explicit TraceRing(std::size_t capacity = 1u << 20)
        : slots(capacity)
    {}

    /** Runtime switch; off costs one predictable branch per site. */
    bool enabled() const { return on; }
    void setEnabled(bool e) { on = e; }

    /** Append one record (overwrites the oldest once full). */
    void
    push(const SpanRecord &r)
    {
        if (slots.empty())
            return;
#if defined(__SSE2__)
        // A large ring is written once per slot and read only at
        // export: stream the record past the cache so recording does
        // not evict the model's working set (or pay the
        // read-for-ownership on every cold line).  Slots are 32 bytes
        // and the heap block is 16-byte aligned, so two 16-byte
        // streaming stores cover one record.  Single-threaded use:
        // same-core loads (forEach) see the data without fencing.
        auto *dst = reinterpret_cast<__m128i *>(&slots[head]);
        auto *src = reinterpret_cast<const __m128i *>(&r);
        _mm_stream_si128(dst, _mm_loadu_si128(src));
        _mm_stream_si128(dst + 1, _mm_loadu_si128(src + 1));
#else
        slots[head] = r;
#endif
        if (++head == slots.size()) {
            head = 0;
            wrapped = true;
        }
        ++total;
    }

    /** Records pushed over the ring's lifetime. */
    std::uint64_t totalRecorded() const { return total; }

    /** Records lost to wrapping (oldest-first). */
    std::uint64_t
    dropped() const
    {
        return wrapped ? total - slots.size() : 0;
    }

    /** Live records currently held. */
    std::size_t size() const { return wrapped ? slots.size() : head; }

    std::size_t capacity() const { return slots.size(); }

    /** Visit the live records in place, oldest first. */
    template <class F>
    void
    forEach(F &&f) const
    {
        if (wrapped) {
            for (std::size_t i = head; i < slots.size(); ++i)
                f(slots[i]);
        }
        for (std::size_t i = 0; i < head; ++i)
            f(slots[i]);
    }

    /**
     * Copy out the live records, oldest first.  Test and inspection
     * use; the export walks the ring with forEach() instead.
     */
    std::vector<SpanRecord>
    snapshot() const
    {
        std::vector<SpanRecord> out;
        out.reserve(size());
        forEach([&](const SpanRecord &r) { out.push_back(r); });
        return out;
    }

    /** Forget everything (capacity is kept). */
    void
    clear()
    {
        head = 0;
        wrapped = false;
        total = 0;
    }

  private:
    std::vector<SpanRecord> slots;
    std::size_t head = 0;
    bool wrapped = false;
    bool on = false;
    std::uint64_t total = 0;
};

} // namespace vcp

#endif // VCP_TRACE_RING_HH

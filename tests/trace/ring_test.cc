/**
 * @file
 * TraceRing unit tests: push/wrap/snapshot/forEach semantics and the
 * hot-path guard macro.
 */

#include <gtest/gtest.h>

#include "trace/ring.hh"

namespace vcp {
namespace {

SpanRecord
rec(SimTime start, std::int64_t scope)
{
    SpanRecord r;
    r.start = start;
    r.duration = 1;
    r.scope = scope;
    r.kind = SpanKind::Span;
    return r;
}

TEST(TraceRing, StartsEmptyAndDisabled)
{
    TraceRing ring(8);
    EXPECT_FALSE(ring.enabled());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, PushBelowCapacityKeepsEverythingInOrder)
{
    TraceRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(rec(i * 10, i));

    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.totalRecorded(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);

    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(snap[i].start, i * 10);
        EXPECT_EQ(snap[i].scope, i);
    }
}

TEST(TraceRing, WrapDropsOldestKeepsNewestWindow)
{
    TraceRing ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(rec(i, i));

    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.totalRecorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    // Snapshot is oldest-first over the surviving window: 6, 7, 8, 9.
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(snap[i].scope, 6 + i);
}

TEST(TraceRing, WrapExactlyAtCapacityBoundary)
{
    TraceRing ring(4);
    for (int i = 0; i < 4; ++i)
        ring.push(rec(i, i));
    // Full but nothing lost yet.
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.snapshot().front().scope, 0);

    ring.push(rec(4, 4));
    EXPECT_EQ(ring.dropped(), 1u);
    EXPECT_EQ(ring.snapshot().front().scope, 1);
    EXPECT_EQ(ring.snapshot().back().scope, 4);
}

TEST(TraceRing, ZeroCapacityIsInert)
{
    TraceRing ring(0);
    ring.push(rec(1, 1));
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, ClearForgetsRecordsKeepsCapacity)
{
    TraceRing ring(4);
    for (int i = 0; i < 6; ++i)
        ring.push(rec(i, i));
    ring.clear();

    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.capacity(), 4u);

    ring.push(rec(99, 99));
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].scope, 99);
}

TEST(TraceRing, ForEachVisitsWhatSnapshotCopies)
{
    // Empty, partially filled, exactly full, and wrapped (twice over).
    for (int pushes : {0, 3, 5, 13}) {
        TraceRing ring(5);
        for (int i = 0; i < pushes; ++i)
            ring.push(rec(i, i));
        std::vector<std::int64_t> visited;
        ring.forEach(
            [&](const SpanRecord &r) { visited.push_back(r.scope); });
        std::vector<std::int64_t> copied;
        for (const SpanRecord &r : ring.snapshot())
            copied.push_back(r.scope);
        EXPECT_EQ(visited, copied) << pushes << " pushes";
        ASSERT_EQ(visited.size(), ring.size());
        if (!visited.empty()) {
            EXPECT_EQ(visited.back(), pushes - 1);
        }
    }
}

TEST(TraceRing, GuardMacroTracksPointerAndEnable)
{
    TraceRing *none = nullptr;
    EXPECT_FALSE(VCP_TRACE_ON(none));

    TraceRing ring(4);
    TraceRing *p = &ring;
    EXPECT_FALSE(VCP_TRACE_ON(p)); // attached but disabled
    ring.setEnabled(true);
    EXPECT_TRUE(VCP_TRACE_ON(p));
    ring.setEnabled(false);
    EXPECT_FALSE(VCP_TRACE_ON(p));
}

TEST(TraceRing, RecordLayoutStaysCompact)
{
    // The ring is sized in records; keep the record 32 bytes so a
    // 1M-slot ring stays at 32 MiB.
    EXPECT_EQ(sizeof(SpanRecord), 32u);
}

} // namespace
} // namespace vcp

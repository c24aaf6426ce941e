/**
 * @file
 * Perfetto trace_event export tests: envelope shape, event kinds,
 * name escaping, lane packing for overlapping spans, the exact byte
 * format, and agreement between the string and file entry points.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/logging.hh"
#include "trace/perfetto.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
setTestAxes(SpanTracer &t)
{
    t.setAxes({"power-on", "clone-full"}, {"api", "queue", "db"},
              {"none", "oops"});
}

TEST(PerfettoExport, EmptyTracerProducesValidEnvelope)
{
    SpanTracer t;
    setTestAxes(t);
    std::string json = exportPerfettoJson(t);

    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("vcpsim"), std::string::npos);
    // Balanced braces — a cheap structural sanity check.
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST(PerfettoExport, OpAndPhaseBecomeCompleteEvents)
{
    SpanTracer t;
    setTestAxes(t);
    t.recordPhase(1, 0, 7, 100, 50);  // api
    t.recordPhase(1, 2, 7, 150, 250); // db
    t.recordOp(1, 1, 7, 100, 300);    // clone-full, error "oops"
    std::string json = exportPerfettoJson(t);

    // Whole-op event carries the op name, category, and error arg.
    EXPECT_NE(json.find("\"name\":\"clone-full\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"op\""), std::string::npos);
    EXPECT_NE(json.find("\"error\":\"oops\""), std::string::npos);
    EXPECT_NE(json.find("\"task\":7"), std::string::npos);

    // Phase slices resolve their axis names.
    EXPECT_NE(json.find("\"name\":\"api\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"db\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);

    // All three are complete ("X") events with ts/dur.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 3u);
    EXPECT_NE(json.find("\"ts\":100,\"dur\":300"), std::string::npos);

    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST(PerfettoExport, NamedSpansInstantsAndCounters)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t deploy = t.intern("vapp.deploy");
    std::uint16_t mark = t.intern("placement-fail");
    std::uint16_t gauge = t.intern("api.queue");
    t.recordSpan(deploy, 3, 1000, 500);
    t.recordInstant(mark, 4, 1200);
    t.recordCounter(gauge, 1300, 17);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("\"name\":\"vapp.deploy\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);

    // Instant: thread-scoped marker.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"placement-fail\""),
              std::string::npos);

    // Counter sample: value in args.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"api.queue\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":17"), std::string::npos);
}

TEST(PerfettoExport, OverlappingOpsGetDistinctLanes)
{
    SpanTracer t;
    setTestAxes(t);
    // Two ops fully overlapping in time -> two lanes; a third that
    // starts after both end can reuse lane 0.
    t.recordOp(0, 0, 1, 0, 100);
    t.recordOp(0, 0, 2, 50, 100);
    t.recordOp(0, 0, 3, 500, 100);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("\"name\":\"ops 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ops 1\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"ops 2\""), std::string::npos);
}

TEST(PerfettoExport, EscapesQuotesAndControlCharacters)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t odd = t.intern("we\"ird\nname");
    t.recordInstant(odd, 0, 10);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("we\\\"ird\\nname"), std::string::npos);
    // The raw quote/newline must not leak into the JSON.
    EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

TEST(PerfettoExport, WriteToFileRoundTrips)
{
    SpanTracer t;
    setTestAxes(t);
    t.recordOp(0, 0, 1, 0, 100);
    std::string path = ::testing::TempDir() + "vcp_perfetto_test.json";
    ASSERT_TRUE(writePerfettoJson(t, path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf).rfind("{\"displayTimeUnit\"", 0), 0u);
    std::remove(path.c_str());
}

TEST(PerfettoExport, GoldenTinyTrace)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t copy = t.intern("copy");
    std::uint16_t deploy = t.intern("vapp.deploy");
    std::uint16_t mark = t.intern("placement-fail");
    std::uint16_t gauge = t.intern("api.queue");
    t.recordPhase(1, 0, 7, 100, 50);
    t.ring().push({150, 20, 7, copy, SpanKind::Sub, 1, {}});
    t.recordOp(1, 1, 7, 100, 300);
    t.recordSpan(deploy, 3, 1000, 500);
    t.recordInstant(mark, 4, 1200);
    t.recordCounter(gauge, 1300, -17);

    const char *golden = R"json({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"vcpsim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"ops 0"}},
{"name":"clone-full","cat":"op","ph":"X","pid":1,"tid":1,"ts":100,"dur":300,"args":{"task":7,"error":"oops"}},
{"name":"api","cat":"phase","ph":"X","pid":1,"tid":1,"ts":100,"dur":50,"args":{"task":7}},
{"name":"copy","cat":"detail","ph":"X","pid":1,"tid":1,"ts":150,"dur":20,"args":{"task":7}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"vapp.deploy"}},
{"name":"vapp.deploy","cat":"span","ph":"X","pid":1,"tid":2,"ts":1000,"dur":500,"args":{"scope":3}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"markers"}},
{"name":"placement-fail","cat":"marker","ph":"i","s":"t","pid":1,"tid":3,"ts":1200,"args":{"scope":4}},
{"name":"api.queue","cat":"counter","ph":"C","pid":1,"ts":1300,"args":{"value":-17}}
]}
)json";
    EXPECT_EQ(exportPerfettoJson(t), golden);
}

/** A tracer holding every SpanKind, counters between op records. */
void
recordMixed(SpanTracer &t, int ops)
{
    std::uint16_t hop = t.intern("hop:core");
    std::uint16_t deploy = t.intern("vapp.deploy");
    std::uint16_t mark = t.intern("placement-fail");
    std::uint16_t gauge = t.intern("api.queue");
    for (int i = 0; i < ops; ++i) {
        SimTime at = i * 40;
        t.recordCounter(gauge, at, i);
        t.recordPhase(0, 1, i, at, 30);
        t.ring().push({at + 5, 10, i, hop, SpanKind::Sub, 0, {}});
        t.recordCounter(gauge, at + 20, -i);
        t.recordOp(0, i % 2, i, at, 60);
        t.recordSpan(deploy, i, at + 10, 70);
        t.recordInstant(mark, i, at + 15);
    }
}

TEST(PerfettoExport, StringAndFileExportsAreByteIdentical)
{
    // Capacity 8 keeps the last op with its two counters between its
    // records; 4096 wraps mid-op (orphaned slices) and its output
    // spans more than one 64 KiB write buffer.
    for (std::size_t cap : {std::size_t{8}, std::size_t{4096}}) {
        SpanTracer t(TracerConfig{cap, true});
        setTestAxes(t);
        recordMixed(t, 1000);
        ASSERT_GT(t.ring().dropped(), 0u);

        std::string json = exportPerfettoJson(t);
        std::string path =
            ::testing::TempDir() + "vcp_perfetto_identity.json";
        setLogQuiet(true);
        ASSERT_TRUE(writePerfettoJson(t, path));
        setLogQuiet(false);
        EXPECT_EQ(readFile(path), json) << "capacity " << cap;
        std::remove(path.c_str());

        // Counters come after every other event, in ring order.
        std::size_t first_counter = json.find("\"ph\":\"C\"");
        ASSERT_NE(first_counter, std::string::npos);
        EXPECT_EQ(json.find("\"ph\":\"X\"", first_counter),
                  std::string::npos);
        EXPECT_EQ(json.find("\"ph\":\"i\"", first_counter),
                  std::string::npos);
        EXPECT_EQ(countOccurrences(json, "{"),
                  countOccurrences(json, "}"));

        if (cap == 8) {
            EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""), 2u);
            std::size_t up = json.find("\"value\":999}");
            std::size_t down = json.find("\"value\":-999}");
            ASSERT_NE(up, std::string::npos);
            ASSERT_NE(down, std::string::npos);
            EXPECT_LT(up, down);
        } else {
            EXPECT_GT(json.size(), std::size_t{1} << 16);
        }
    }
}

TEST(PerfettoExport, LongNamesAreEscapedInFull)
{
    SpanTracer t;
    t.setAxes({"power-on"}, {"api"}, {"none", "bad \"quote\""});
    std::string raw = std::string(199, 'a') + "\"" +
                      std::string(100, 'b') + "\\" +
                      std::string(99, 'c');
    ASSERT_EQ(raw.size(), 400u);
    std::string escaped = std::string(199, 'a') + "\\\"" +
                          std::string(100, 'b') + "\\\\" +
                          std::string(99, 'c');
    std::uint16_t id = t.intern(raw);
    t.recordSpan(id, 1, 10, 5);
    t.recordInstant(id, 2, 20);
    t.recordCounter(id, 30, 4);
    t.recordOp(0, 1, 9, 0, 40);
    std::string json = exportPerfettoJson(t);

    // Lane label, span event, instant and counter each carry it.
    EXPECT_EQ(countOccurrences(json, "\"" + escaped + "\""), 4u);
    EXPECT_EQ(json.find(raw), std::string::npos);
    EXPECT_NE(json.find("\"error\":\"bad \\\"quote\\\"\""),
              std::string::npos);
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));

    // Control characters take the shared escaper's short forms where
    // JSON has one and \u00XX otherwise; none reaches the file raw.
    SpanTracer c;
    c.setAxes({"power-on"}, {"api"}, {"none"});
    std::uint16_t ctl = c.intern("tab\tcr\rnl\nbell\x07");
    c.recordCounter(ctl, 30, 4);
    std::string cjson = exportPerfettoJson(c);
    EXPECT_NE(cjson.find("\"tab\\tcr\\rnl\\nbell\\u0007\""),
              std::string::npos);
    EXPECT_EQ(cjson.find('\r'), std::string::npos);
    EXPECT_EQ(cjson.find('\x07'), std::string::npos);
}

TEST(PerfettoExport, FullDiskReportsFailure)
{
    SpanTracer t;
    setTestAxes(t);
    t.recordOp(0, 0, 1, 0, 100);
    setLogQuiet(true);
    bool ok = writePerfettoJson(t, "/dev/full");
    setLogQuiet(false);
    EXPECT_FALSE(ok);
}

TEST(PerfettoExport, UnwritablePathReportsFailure)
{
    SpanTracer t;
    setTestAxes(t);
    setLogQuiet(true);
    bool ok = writePerfettoJson(t, "/nonexistent-dir/trace.json");
    setLogQuiet(false);
    EXPECT_FALSE(ok);
}

} // namespace
} // namespace vcp

#include "trace/perfetto.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "telemetry/json_util.hh"

namespace vcp {

namespace {

/** JSON-escape a name table once, so events never escape. */
std::vector<std::string>
escapeAll(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    out.reserve(names.size());
    for (const std::string &n : names)
        out.push_back(telemetry::jsonEscape(n));
    return out;
}

std::string_view
lookupName(const std::vector<std::string> &table, std::size_t idx,
           std::string_view fallback)
{
    return idx < table.size() ? std::string_view(table[idx]) : fallback;
}

/**
 * Fixed-buffer output: text accumulates in 64 KiB that is handed to a
 * FILE or appended to a string whenever it fills, so the export holds
 * one buffer of text however large the trace is.
 */
class Sink
{
  public:
    explicit Sink(std::FILE *f) : file(f) {}
    explicit Sink(std::string &s) : str(&s) {}

    void
    put(char c)
    {
        if (len == kSize)
            flush();
        buf[len++] = c;
    }

    void
    put(std::string_view s)
    {
        if (s.size() > kSize - len) {
            flush();
            if (s.size() > kSize) {
                drain(s.data(), s.size());
                return;
            }
        }
        std::memcpy(buf + len, s.data(), s.size());
        len += s.size();
    }

    /** Decimal integer, formatted by hand. */
    void
    num(std::int64_t v)
    {
        char tmp[20];
        char *end = tmp + sizeof(tmp);
        char *p = end;
        std::uint64_t u = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                : static_cast<std::uint64_t>(v);
        do {
            *--p = static_cast<char>('0' + u % 10);
            u /= 10;
        } while (u != 0);
        if (v < 0)
            put('-');
        put(std::string_view(p, static_cast<std::size_t>(end - p)));
    }

    void
    flush()
    {
        drain(buf, len);
        len = 0;
    }

  private:
    void
    drain(const char *p, std::size_t n)
    {
        if (file)
            std::fwrite(p, 1, n, file);
        else
            str->append(p, n);
    }

    static constexpr std::size_t kSize = 1u << 16;
    char buf[kSize];
    std::size_t len = 0;
    std::FILE *file = nullptr;
    std::string *str = nullptr;
};

/** trace_event envelope and event shapes over a Sink. */
class Json
{
  public:
    explicit Json(Sink &s) : out(s)
    {
        out.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        begin();
        out.put("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"args\":{\"name\":\"vcpsim\"}}");
    }

    void finish() { out.put("\n]}\n"); }

    /** Lane label @p name, followed by " <suffix>" when >= 0. */
    void
    threadName(int tid, std::string_view name, std::int64_t suffix = -1)
    {
        begin();
        out.put("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":");
        out.num(tid);
        out.put(",\"args\":{\"name\":\"");
        out.put(name);
        if (suffix >= 0) {
            out.put(' ');
            out.num(suffix);
        }
        out.put("\"}}");
    }

    /** Complete event with one integer arg (plus the op's error). */
    void
    complete(std::string_view name, std::string_view cat, int tid,
             SimTime ts, SimDuration dur, std::string_view key,
             std::int64_t value, const std::string_view *error = nullptr)
    {
        begin();
        out.put("{\"name\":\"");
        out.put(name);
        out.put("\",\"cat\":\"");
        out.put(cat);
        out.put("\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.num(tid);
        out.put(",\"ts\":");
        out.num(ts);
        out.put(",\"dur\":");
        out.num(dur);
        out.put(",\"args\":{\"");
        out.put(key);
        out.put("\":");
        out.num(value);
        if (error) {
            out.put(",\"error\":\"");
            out.put(*error);
            out.put('"');
        }
        out.put("}}");
    }

    void
    instant(std::string_view name, int tid, SimTime ts,
            std::int64_t scope)
    {
        begin();
        out.put("{\"name\":\"");
        out.put(name);
        out.put("\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\","
                "\"pid\":1,\"tid\":");
        out.num(tid);
        out.put(",\"ts\":");
        out.num(ts);
        out.put(",\"args\":{\"scope\":");
        out.num(scope);
        out.put("}}");
    }

    void
    counter(std::string_view name, SimTime ts, std::int64_t value)
    {
        begin();
        out.put("{\"name\":\"");
        out.put(name);
        out.put("\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"ts\":");
        out.num(ts);
        out.put(",\"args\":{\"value\":");
        out.num(value);
        out.put("}}");
    }

  private:
    void
    begin()
    {
        if (!first)
            out.put(",\n");
        first = false;
    }

    Sink &out;
    bool first = true;
};

/** One op's records, regrouped from the flat ring. */
struct TaskGroup
{
    SimTime start = 0;
    SimTime end = 0;
    bool has_op = false;
    SpanRecord op{};
    std::vector<SpanRecord> slices; ///< phases + sub-phase details
};

/**
 * Greedy lane assignment: intervals sorted by start; a lane is
 * reusable when its last interval ended at or before the new start.
 * Returns per-interval lane indices (0-based) and the lane count.
 */
std::size_t
assignLanes(const std::vector<std::pair<SimTime, SimTime>> &intervals,
            std::vector<int> &lane_of)
{
    lane_of.assign(intervals.size(), 0);
    std::vector<std::size_t> order(intervals.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return intervals[a].first < intervals[b].first;
              });
    // Min-heap of (lane_end, lane_id).
    std::priority_queue<std::pair<SimTime, int>,
                        std::vector<std::pair<SimTime, int>>,
                        std::greater<>>
        lanes;
    int next_lane = 0;
    for (std::size_t idx : order) {
        auto [start, end] = intervals[idx];
        if (!lanes.empty() && lanes.top().first <= start) {
            auto [_, lane] = lanes.top();
            lanes.pop();
            lane_of[idx] = lane;
            lanes.emplace(end, lane);
        } else {
            lane_of[idx] = next_lane;
            lanes.emplace(end, next_lane);
            ++next_lane;
        }
    }
    return static_cast<std::size_t>(next_lane);
}

/**
 * The one emitter behind both entry points.  Walks the ring twice
 * without copying it: pass 1 regroups op-scoped records, named spans
 * and instants (the only records held in memory); pass 2 streams the
 * counter samples in ring order.
 */
void
emitPerfetto(const SpanTracer &tracer, Sink &sink)
{
    const TraceRing &ring = tracer.ring();
    const std::vector<std::string> op_names =
        escapeAll(tracer.opNames());
    const std::vector<std::string> phase_names =
        escapeAll(tracer.phaseNames());
    const std::vector<std::string> error_names =
        escapeAll(tracer.errorNames());
    const std::vector<std::string> interned =
        escapeAll(tracer.internedNames());

    Json json(sink);

    // Regroup op-scoped records by task id (ring order is time order,
    // so groups keep their internal ordering).
    std::unordered_map<std::int64_t, TaskGroup> tasks;
    std::vector<std::int64_t> task_order;
    std::map<std::uint16_t, std::vector<SpanRecord>> named_spans;
    std::vector<SpanRecord> instants;

    ring.forEach([&](const SpanRecord &r) {
        switch (r.kind) {
          case SpanKind::Op:
          case SpanKind::Phase:
          case SpanKind::Sub: {
            auto [it, fresh] = tasks.try_emplace(r.scope);
            TaskGroup &g = it->second;
            if (fresh) {
                task_order.push_back(r.scope);
                g.start = r.start;
            }
            g.start = std::min(g.start, r.start);
            g.end = std::max(g.end, r.start + r.duration);
            if (r.kind == SpanKind::Op) {
                g.has_op = true;
                g.op = r;
            } else {
                g.slices.push_back(r);
            }
            break;
          }
          case SpanKind::Span:
            named_spans[r.name].push_back(r);
            break;
          case SpanKind::Instant:
            instants.push_back(r);
            break;
          case SpanKind::Counter:
            break;
        }
    });

    // Op lanes: tids 1..N.
    std::vector<std::pair<SimTime, SimTime>> intervals;
    intervals.reserve(task_order.size());
    for (std::int64_t id : task_order)
        intervals.emplace_back(tasks[id].start, tasks[id].end);
    std::vector<int> lane_of;
    std::size_t op_lanes = assignLanes(intervals, lane_of);
    for (std::size_t l = 0; l < op_lanes; ++l)
        json.threadName(static_cast<int>(l) + 1, "ops",
                        static_cast<std::int64_t>(l));
    for (std::size_t i = 0; i < task_order.size(); ++i) {
        const TaskGroup &g = tasks[task_order[i]];
        int tid = lane_of[i] + 1;
        if (g.has_op) {
            std::string_view error =
                lookupName(error_names, g.op.name, "?");
            json.complete(lookupName(op_names, g.op.op, "op"), "op", tid,
                          g.op.start, g.op.duration, "task", g.op.scope,
                          &error);
        }
        for (const SpanRecord &s : g.slices) {
            if (s.kind == SpanKind::Phase) {
                json.complete(lookupName(phase_names, s.name, "phase"),
                              "phase", tid, s.start, s.duration, "task",
                              s.scope);
            } else {
                json.complete(lookupName(interned, s.name, "detail"),
                              "detail", tid, s.start, s.duration, "task",
                              s.scope);
            }
        }
    }

    // Named span groups: per-name lane blocks after the op lanes.
    int next_tid = static_cast<int>(op_lanes) + 1;
    for (const auto &[name_id, spans] : named_spans) {
        intervals.clear();
        for (const SpanRecord &s : spans)
            intervals.emplace_back(s.start, s.start + s.duration);
        std::size_t lanes = assignLanes(intervals, lane_of);
        std::string_view base = lookupName(interned, name_id, "span");
        for (std::size_t l = 0; l < lanes; ++l) {
            json.threadName(next_tid + static_cast<int>(l), base,
                            lanes > 1 ? static_cast<std::int64_t>(l)
                                      : -1);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            json.complete(base, "span", next_tid + lane_of[i],
                          spans[i].start, spans[i].duration, "scope",
                          spans[i].scope);
        }
        next_tid += static_cast<int>(lanes);
    }

    // Instants share one marker track.
    if (!instants.empty()) {
        json.threadName(next_tid, "markers");
        for (const SpanRecord &r : instants)
            json.instant(lookupName(interned, r.name, "marker"), next_tid,
                         r.start, r.scope);
        ++next_tid;
    }

    // Counter samples become "C" tracks keyed by name.
    ring.forEach([&](const SpanRecord &r) {
        if (r.kind == SpanKind::Counter)
            json.counter(lookupName(interned, r.name, "counter"), r.start,
                         r.duration);
    });

    json.finish();
    sink.flush();
}

} // namespace

std::string
exportPerfettoJson(const SpanTracer &tracer)
{
    std::string out;
    Sink sink(out);
    emitPerfetto(tracer, sink);
    return out;
}

bool
writePerfettoJson(const SpanTracer &tracer, const std::string &path)
{
    struct Closer
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "wb"));
    if (!f) {
        warnTagged("trace", "cannot write %s", path.c_str());
        return false;
    }
    // The sink buffers; stdio would only copy each chunk again.
    std::setvbuf(f.get(), nullptr, _IONBF, 0);
    Sink sink(f.get());
    emitPerfetto(tracer, sink);
    bool ok = !std::ferror(f.get());
    ok &= std::fclose(f.release()) == 0;
    if (!ok) {
        warnTagged("trace", "write to %s failed", path.c_str());
        return false;
    }
    if (tracer.ring().dropped() > 0) {
        warnTagged("trace",
                   "ring wrapped; %llu oldest records dropped "
                   "(raise capacity to keep the full run)",
                   static_cast<unsigned long long>(
                       tracer.ring().dropped()));
    }
    return true;
}

} // namespace vcp

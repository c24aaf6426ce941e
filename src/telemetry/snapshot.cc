#include "telemetry/snapshot.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/json_util.hh"

namespace vcp {

using telemetry::jsonEscape;
using telemetry::jsonNum;
using telemetry::promName;

SnapshotEmitter::SnapshotEmitter(Simulator &sim_,
                                 TelemetryRegistry &reg_,
                                 SimDuration interval_p)
    : sim(sim_), reg(reg_), interval_(interval_p)
{
    if (interval_ <= 0)
        fatal("SnapshotEmitter: interval must be > 0");
}

bool
SnapshotEmitter::openNdjson(const std::string &path)
{
    owned_out = std::make_unique<std::ofstream>(path,
                                                std::ios::trunc);
    if (!owned_out->is_open()) {
        warnTagged("telemetry", "cannot open metrics file %s",
                   path.c_str());
        owned_out.reset();
        return false;
    }
    out = owned_out.get();
    ndjson_path = path;
    prom_path = path + ".prom";
    return true;
}

void
SnapshotEmitter::writeTo(std::ostream *os)
{
    out = os;
}

void
SnapshotEmitter::start()
{
    if (running)
        return;
    running = true;
    last_emit = sim.now();
    sim.schedule(interval_, [this] { tick(); });
}

void
SnapshotEmitter::tick()
{
    if (!running)
        return;
    emitNow();
    sim.schedule(interval_, [this] { tick(); });
}

void
SnapshotEmitter::emitNow()
{
    reg.sampleGauges(sim.now());
    noteDominant();
    emitLine(snapshotLine());
    writeProm();
    last_emit = sim.now();
    ++seq;
}

bool
SnapshotEmitter::finish(const HealthReport &hr)
{
    // A final partial window: emit unless the last snapshot already
    // covered this instant (run length an exact multiple of the
    // interval, or a run shorter than one window that never ticked —
    // then this is the only snapshot).
    if (seq == 0 || sim.now() > last_emit)
        emitNow();
    emitLine(healthJson(hr));
    writeProm();
    return failed_path.empty();
}

void
SnapshotEmitter::noteFailure(const std::string &path)
{
    if (failed_path.empty())
        failed_path = path.empty() ? "metrics stream" : path;
}

void
SnapshotEmitter::emitLine(const std::string &line)
{
    if (!out)
        return;
    *out << line << '\n';
    out->flush();
    if (!out->good())
        noteFailure(ndjson_path);
}

void
SnapshotEmitter::noteDominant()
{
    const auto &utils = reg.utilProbes();
    if (utils.empty())
        return;
    std::string best;
    double best_v = -1.0;
    for (const auto &p : utils) {
        double v = p.fn();
        if (v > best_v || (v == best_v && p.name < best)) {
            best_v = v;
            best = p.name;
        }
    }
    bool found = false;
    for (auto &[name, count] : wins) {
        if (name == best) {
            ++count;
            found = true;
            break;
        }
    }
    if (!found)
        wins.emplace_back(best, 1);
    recent[recent_n % kRecentWindows] = best;
    ++recent_n;
}

std::vector<std::string>
SnapshotEmitter::recentDominants() const
{
    std::vector<std::string> out_v;
    std::size_t n = std::min(recent_n, kRecentWindows);
    out_v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out_v.push_back(recent[(recent_n - n + i) % kRecentWindows]);
    return out_v;
}

std::string
SnapshotEmitter::snapshotLine()
{
    SimTime now = sim.now();
    double dt_s = toSeconds(now - last_emit);

    std::string j = "{\"type\":\"snapshot\",\"seq\":"
        + std::to_string(seq) + ",\"ts_us\":" + std::to_string(now)
        + ",\"window_us\":" + std::to_string(now - last_emit);

    // Counters: instruments first, then counter probes, both
    // rendered with the same shape.
    j += ",\"counters\":{";
    bool first = true;
    auto counterEntry = [&](const std::string &name,
                            std::uint64_t total, std::uint64_t window,
                            double rate) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(name)
            + "\":{\"total\":" + std::to_string(total)
            + ",\"window\":" + std::to_string(window)
            + ",\"rate_per_s\":" + jsonNum(rate) + "}";
    };
    for (const auto &name : reg.counterNames()) {
        const WindowedCounter &c = *reg.findCounter(name);
        counterEntry(name, c.total(), c.inWindow(now),
                     c.ratePerSec(now));
    }
    for (auto &p : reg.counterProbes()) {
        if (p.shard_scoped)
            continue;
        std::uint64_t cur = p.fn();
        std::uint64_t delta = cur >= p.prev ? cur - p.prev : 0;
        p.prev = cur;
        counterEntry(p.name, cur, delta,
                     dt_s > 0 ? static_cast<double>(delta) / dt_s
                              : 0.0);
    }
    j += "}";

    // Gauges: decaying levels, probe-fed and sampler-fed alike.
    j += ",\"gauges\":{";
    first = true;
    for (const auto &name : reg.gaugeNames()) {
        const DecayingGauge *g = reg.findGauge(name);
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(name)
            + "\":{\"last\":" + jsonNum(g->last())
            + ",\"ewma\":" + jsonNum(g->ewma())
            + ",\"min\":" + jsonNum(g->min())
            + ",\"max\":" + jsonNum(g->max()) + "}";
    }
    j += "}";

    // Utilizations: instantaneous whole-run busy fractions.
    j += ",\"utils\":{";
    first = true;
    for (const auto &p : reg.utilProbes()) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(p.name) + "\":" + jsonNum(p.fn());
    }
    j += "}";

    // Histograms: HDR-style quantiles.
    j += ",\"hists\":{";
    first = true;
    for (const auto &name : reg.histogramNames()) {
        const LatencyHistogram &h = *reg.findHistogram(name);
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(name)
            + "\":{\"count\":" + std::to_string(h.count())
            + ",\"sum_us\":" + jsonNum(h.sum())
            + ",\"min_us\":" + jsonNum(h.min())
            + ",\"p50_us\":" + jsonNum(h.p50())
            + ",\"p95_us\":" + jsonNum(h.p95())
            + ",\"p99_us\":" + jsonNum(h.p99())
            + ",\"max_us\":" + jsonNum(h.max()) + "}";
    }
    j += "}";

    // Shard-scoped series LAST — everything before this comma is
    // identical across --parallel-shards counts (Merge mode).
    j += ",\"shards\":{";
    first = true;
    for (auto &p : reg.counterProbes()) {
        if (!p.shard_scoped)
            continue;
        std::uint64_t cur = p.fn();
        std::uint64_t delta = cur >= p.prev ? cur - p.prev : 0;
        p.prev = cur;
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(p.name)
            + "\":{\"total\":" + std::to_string(cur)
            + ",\"window\":" + std::to_string(delta) + "}";
    }
    j += "}}";
    return j;
}

void
SnapshotEmitter::writeProm()
{
    if (prom_path.empty())
        return;
    std::ofstream pf(prom_path, std::ios::trunc);
    if (!pf.is_open()) {
        noteFailure(prom_path);
        return;
    }
    SimTime now = sim.now();

    for (const auto &name : reg.counterNames()) {
        const WindowedCounter &c = *reg.findCounter(name);
        std::string pn = "vcp_" + promName(name);
        pf << "# TYPE " << pn << "_total counter\n"
           << pn << "_total " << c.total() << "\n"
           << "# TYPE " << pn << "_rate_per_s gauge\n"
           << pn << "_rate_per_s " << jsonNum(c.ratePerSec(now))
           << "\n";
    }
    for (const auto &p : reg.counterProbes()) {
        std::string pn = "vcp_" + promName(p.name);
        pf << "# TYPE " << pn << "_total counter\n"
           << pn << "_total " << p.fn() << "\n";
    }
    for (const auto &name : reg.gaugeNames()) {
        const DecayingGauge *g = reg.findGauge(name);
        std::string pn = "vcp_" + promName(name);
        pf << "# TYPE " << pn << " gauge\n"
           << pn << " " << jsonNum(g->last()) << "\n"
           << "# TYPE " << pn << "_ewma gauge\n"
           << pn << "_ewma " << jsonNum(g->ewma()) << "\n";
    }
    for (const auto &p : reg.utilProbes()) {
        std::string pn = "vcp_" + promName(p.name);
        pf << "# TYPE " << pn << " gauge\n"
           << pn << " " << jsonNum(p.fn()) << "\n";
    }
    for (const auto &name : reg.histogramNames()) {
        const LatencyHistogram &h = *reg.findHistogram(name);
        std::string pn = "vcp_" + promName(name);
        pf << "# TYPE " << pn << " summary\n"
           << pn << "{quantile=\"0.5\"} " << jsonNum(h.p50()) << "\n"
           << pn << "{quantile=\"0.95\"} " << jsonNum(h.p95()) << "\n"
           << pn << "{quantile=\"0.99\"} " << jsonNum(h.p99()) << "\n"
           << pn << "_sum " << jsonNum(h.sum()) << "\n"
           << pn << "_count " << h.count() << "\n";
    }
    pf.flush();
    if (!pf)
        noteFailure(prom_path);
}

} // namespace vcp

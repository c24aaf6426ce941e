/**
 * @file
 * Driver of the host-time benchmark (see README.md).
 *
 * Builds one workload through the library's public API, runs it in
 * 5-simulated-minute runUntil() slices (federation: one deploy burst
 * per step), writes the end-of-run reports and exports vcpsim writes
 * for the same configuration, and prints one JSON line: in-process
 * timings, counts, and a digest of the simulated outcome.  run.py
 * times the process from outside and checks the digest.
 *
 *   vcpbench <churn|wide|observed|federation> --seed N --out DIR
 *            [--single] [--shards N] [--merge] [--describe]
 *
 * --single runs the whole window with one CloudSimulation::run()
 * call; --shards overrides the merge-shard count of observed;
 * --merge runs federation under the deterministic merge oracle.
 * These exist for the determinism self-tests (test_perfbench.py).
 * --describe prints the generated inputs instead of running.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bottleneck.hh"
#include "analysis/breakdown.hh"
#include "cloud/federation.hh"
#include "cloud/ha_manager.hh"
#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "telemetry/health.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "trace/perfetto.hh"
#include "trace/sampler.hh"
#include "trace/shard_lanes.hh"
#include "trace/tracer.hh"
#include "trace_span.hh"
#include "workload/chaos.hh"
#include "workload/failures.hh"
#include "workload/profiles.hh"

namespace {

using namespace vcp;
using Clock = std::chrono::steady_clock;

/** Simulated length of one timed runUntil() step. */
constexpr SimDuration kSlice = minutes(5);

/** The CI chaos scenario (.github/workflows/ci.yml). */
constexpr const char *kObservedChaos =
    "disconnect:mtbf=20m,duration=4m;db-stall:mtbf=40m,duration=90s;"
    "link-down:mtbf=30m,duration=3m";

/** @{ Federation shape: share-nothing domains fed deploy bursts. */
constexpr int kFedDomains = 4;
constexpr int kFedHostsPerDomain = 16;
constexpr int kFedBurstSteps = 144; ///< 12 simulated hours
constexpr int kFedDrainSteps = 12;  ///< lets the last leases expire
constexpr int kFedBurstMin = 24;
constexpr int kFedBurstMax = 56;
/** @} */

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a 64: a fixed hash, so digests compare across builds. */
std::uint64_t
fnv(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    return static_cast<bool>(out);
}

/** Flat JSON object writer (numbers, strings, number lists). */
class Json
{
  public:
    Json &num(const char *k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(k, buf);
    }
    Json &u64(const char *k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &str(const char *k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    Json &list(const char *k, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
            s += buf;
        }
        return raw(k, s + "]");
    }
    Json &strList(const char *k, const std::vector<std::string> &v)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? ",\"" : "\"") + v[i] + "\"";
        return raw(k, s + "]");
    }
    Json &raw(const char *k, const std::string &v)
    {
        body += (body.empty() ? "" : ",");
        body += "\"";
        body += k;
        body += "\":" + v;
        return *this;
    }
    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string out = ".";
    bool single = false;
    int shards = 0; ///< 0: the workload's own shard count
    bool merge = false;
    bool describe = false;
};

/** What every run reports besides its timings. */
struct Outcome
{
    std::uint64_t ops_attempted = 0;
    std::uint64_t ops_completed = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t deploys_ok = 0;
    std::uint64_t deploys_failed = 0;
    std::uint64_t undeploys = 0;
    std::uint64_t events = 0;
    std::uint64_t actions = 0;
    double op_p95_sim_s = 0.0;
    double dispatch_util = 0.0;
    std::uint64_t trace_spans = 0;
    std::uint64_t trace_dropped = 0;
    std::uint64_t sampler_ticks = 0;
    std::uint64_t trace_bytes = 0;
    std::uint64_t telemetry_snapshots = 0;
    std::uint64_t telemetry_bytes = 0;
    std::string digest;
    std::vector<std::string> domain_digests;
};

/** In-process timings of one run (wall seconds unless noted). */
struct Timings
{
    double setup_s = 0.0;
    double sim_s = 0.0;
    std::vector<double> slice_ms;
    double analysis_report_s = 0.0;
    double trace_export_s = 0.0;
    double telemetry_finish_s = 0.0;
};

/** The result line run.py reads. */
void
writeResult(const Options &o, const Timings &t, const Outcome &oc,
            const ShardedSimulator &eng, Json &j)
{
    std::uint64_t stalled = 0, cross = 0, barrier_ns = 0;
    for (int s = 0; s < eng.numShards(); ++s) {
        const auto &st = eng.shardStats(static_cast<ShardId>(s));
        stalled += st.stalled_rounds;
        cross += st.cross_sent;
        barrier_ns += st.barrier_wait_ns;
    }
    j.str("workload", o.workload)
        .u64("seed", o.seed)
        .num("setup_s", t.setup_s)
        .num("sim_s", t.sim_s)
        .list("slice_ms", t.slice_ms)
        .num("analysis_report_s", t.analysis_report_s)
        .num("trace_export_s", t.trace_export_s)
        .num("telemetry_finish_s", t.telemetry_finish_s)
        .u64("ops_attempted", oc.ops_attempted)
        .u64("ops_completed", oc.ops_completed)
        .u64("ops_failed", oc.ops_failed)
        .u64("deploys_ok", oc.deploys_ok)
        .u64("deploys_failed", oc.deploys_failed)
        .u64("undeploys", oc.undeploys)
        .u64("events", oc.events)
        .u64("actions", oc.actions)
        .num("op_p95_sim_s", oc.op_p95_sim_s)
        .num("dispatch_util", oc.dispatch_util)
        .u64("trace_spans", oc.trace_spans)
        .u64("trace_dropped", oc.trace_dropped)
        .u64("sampler_ticks", oc.sampler_ticks)
        .u64("trace_bytes", oc.trace_bytes)
        .u64("telemetry_snapshots", oc.telemetry_snapshots)
        .u64("telemetry_bytes", oc.telemetry_bytes)
        .str("digest", oc.digest)
        .strList("domain_digests", oc.domain_digests)
        .str("exec_mode", shardExecModeName(eng.mode()))
        .u64("shards", static_cast<std::uint64_t>(eng.numShards()))
        .u64("rounds", eng.rounds())
        .u64("stalled_rounds", stalled)
        .u64("cross_msgs", cross)
        // Mean per execution shard, comparable with wall time.
        .num("barrier_wait_s",
             1e-9 * static_cast<double>(barrier_ns) / eng.numShards());
}

std::string
outcomeDigest(std::uint64_t ok, std::uint64_t failed,
              std::uint64_t undeploys, std::uint64_t completed,
              std::uint64_t ops_failed, Bytes moved,
              const std::string &stats_csv, const std::string &ops_csv)
{
    std::string s = "deploys_ok=" + std::to_string(ok) +
        ";deploys_failed=" + std::to_string(failed) +
        ";undeploys=" + std::to_string(undeploys) +
        ";ops_completed=" + std::to_string(completed) +
        ";ops_failed=" + std::to_string(ops_failed) +
        ";bytes_moved=" + std::to_string(moved) +
        ";stats=" + hex(fnv(stats_csv)) + ";ops=" + hex(fnv(ops_csv));
    return hex(fnv(s));
}

/** Nearest-rank p95 of finished-op latencies, in simulated seconds. */
double
p95Seconds(std::vector<SimDuration> lat)
{
    if (lat.empty())
        return 0.0;
    std::size_t k = std::min(lat.size() - 1, lat.size() * 95 / 100);
    std::nth_element(lat.begin(), lat.begin() + k, lat.end());
    return toSeconds(lat[k]);
}

void
appendLatencies(const OpTrace &ops, std::vector<SimDuration> &lat)
{
    for (const OpRecord &r : ops.all())
        lat.push_back(r.latency);
}

// ---------------------------------------------------------------- cloud

/** A CloudSimulation-based workload's generated inputs. */
struct CloudWorkload
{
    CloudSetupSpec spec;
    bool observed = false; ///< trace + metrics + chaos wired as vcpsim
    ChaosConfig chaos;
};

CloudWorkload
cloudWorkload(const Options &o)
{
    CloudWorkload w;
    if (o.workload == "churn") {
        // Cloud A at 10x its rate: the driver's live-set scan and the
        // director's vApp lookups dominate host time.
        w.spec = cloudASpec();
        w.spec.workload.arrival.rate_per_hour = 1200.0;
    } else if (o.workload == "wide") {
        // Cloud B on a 4000-host leaf-spine plant: placement's
        // per-deploy host ordering and fabric routing dominate.
        w.spec = cloudBSpec();
        w.spec.infra.hosts = 4000;
        w.spec.infra.network.fabric.preset = FabricPreset::LeafSpine;
        w.spec.infra.network.fabric.racks = 32;
        w.spec.infra.network.fabric.spines = 4;
        w.spec.workload.arrival.rate_per_hour = 400.0;
    } else {
        // Cloud A as users run it: leaf-spine, 4 merge shards, the CI
        // chaos scenario, --metrics-out and --trace-out defaults.
        w.spec = cloudASpec();
        w.spec.infra.network.fabric.preset = FabricPreset::LeafSpine;
        w.spec.exec.shards = 4;
        w.observed = true;
        std::string err;
        if (!parseChaosSpec(kObservedChaos, w.chaos, err))
            fatal("perfbench: bad chaos spec: %s", err.c_str());
    }
    w.spec.workload.record_ops = true;
    if (o.shards > 0)
        w.spec.exec.shards = o.shards;
    return w;
}

/** One CloudSimulation with the instruments vcpsim attaches, built
 *  in vcpsim's order so the event and RNG sequences match it. */
struct CloudStack
{
    std::unique_ptr<CloudSimulation> cs;
    std::unique_ptr<SpanTracer> tracer;
    std::unique_ptr<TelemetryRegistry> telem;
    std::unique_ptr<SnapshotEmitter> emitter;
    std::unique_ptr<GaugeSampler> sampler;
    std::unique_ptr<HaManager> ha;
    std::unique_ptr<FailureInjector> injector;
    std::unique_ptr<ChaosEngine> chaos;
};

std::unique_ptr<CloudStack>
buildCloud(const CloudWorkload &w, std::uint64_t seed,
           const std::string &out)
{
    auto st = std::make_unique<CloudStack>();
    st->cs = std::make_unique<CloudSimulation>(w.spec, seed);
    CloudSimulation &cs = *st->cs;
    if (w.observed) {
        st->tracer = std::make_unique<SpanTracer>(TracerConfig{});
        cs.enableTracing(st->tracer.get());
        st->telem = std::make_unique<TelemetryRegistry>(seconds(60));
        cs.enableTelemetry(st->telem.get());
        st->emitter = std::make_unique<SnapshotEmitter>(
            cs.sim(), *st->telem, seconds(60));
        // The emitter rewrites FILE.prom at every snapshot (1440 times
        // per simulated day).  On ext4 each truncating rewrite forces
        // a write-back, so the run would time this machine's disk
        // latency, which swings by tens of percent.  The link keeps
        // the formatting and the system calls in the measurement and
        // the disk out of it.
        std::error_code ec;
        std::filesystem::remove(out + "/metrics.ndjson.prom", ec);
        std::filesystem::create_symlink(
            "/dev/null", out + "/metrics.ndjson.prom", ec);
        if (!st->emitter->openNdjson(out + "/metrics.ndjson"))
            fatal("perfbench: cannot write %s", out.c_str());
        st->emitter->start();
        st->sampler = std::make_unique<GaugeSampler>(
            cs.sim(), st->tracer.get(), msec(100));
        cs.addStandardGauges(*st->sampler);
        st->sampler->attachTelemetry(st->telem.get());
        st->sampler->start();
    }
    st->ha = std::make_unique<HaManager>(cs.server());
    st->injector = std::make_unique<FailureInjector>(
        *st->ha, FailureConfig{}, cs.sim().rng().fork());
    if (!w.chaos.faults.empty()) {
        st->chaos = std::make_unique<ChaosEngine>(
            cs.server(), *st->ha, w.chaos, cs.sim().rng().fork());
        if (st->telem)
            st->chaos->attachTelemetry(st->telem.get());
        st->chaos->start();
    }
    return st;
}

/** vcpsim's end-of-run summary, bottleneck and attribution text. */
std::string
cloudReport(CloudStack &st)
{
    CloudSimulation &cs = *st.cs;
    CloudDirector &cloud = cs.cloud();
    ManagementServer &srv = cs.server();
    std::ostringstream r;
    r << "simulated " << formatTime(cs.sim().now()) << "\n"
      << "deploys: " << cloud.deploysSucceeded() << " ok / "
      << cloud.deploysFailed() << " failed; undeploys "
      << cloud.undeploysCompleted() << "; lease expirations "
      << cloud.leases().expirations() << "\n"
      << "management ops: " << srv.opsCompleted() << " completed, "
      << srv.opsFailed() << " failed; "
      << formatBytes(srv.bytesMoved()) << " moved\n";
    if (st.chaos) {
        r << "chaos: " << st.chaos->injected() << " injected, "
          << st.chaos->recovered() << " recovered; "
          << srv.agentDisconnects() << " agent disconnects, "
          << srv.reconciles() << " reconciles\n";
    }
    auto utils = collectUtilizations(srv);
    r << "bottleneck: " << bottleneckResource(utils) << " ("
      << (controlPlaneLimited(utils) ? "control" : "data")
      << " plane)\n";
    if (st.tracer) {
        r << "phase attribution (span-sourced), dominant: "
          << dominantPhase(*st.tracer) << "\n"
          << phaseAttributionTable(attributePhases(*st.tracer))
                 .toText()
          << spanBreakdownTable(*st.tracer).toText();
    }
    return r.str();
}

/** Health report and final snapshot, as vcpsim builds them. */
std::string
finishTelemetry(CloudStack &st)
{
    CloudSimulation &cs = *st.cs;
    HealthReport hr = buildHealthReport(*st.telem, cs.sim().now(),
                                        st.emitter->recentDominants(),
                                        st.emitter->windowWins());
    double elapsed_s = toSeconds(cs.sim().now());
    if (elapsed_s > 0.0) {
        for (HostId h : cs.hostIds())
            hr.top_hosts.push_back(
                {"host-" + std::to_string(h.value),
                 cs.server().hostAgent(h).center().utilization()});
        Fabric &fab = cs.network().topology();
        for (std::size_t l = 0; l < fab.numLinks(); ++l) {
            auto id = static_cast<FabricLinkId>(l);
            hr.top_links.push_back(
                {fab.linkName(id),
                 toSeconds(fab.link(id).busyTime()) / elapsed_s});
        }
        topKCongested(hr.top_hosts);
        topKCongested(hr.top_links);
    }
    st.emitter->finish(hr);
    return healthText(hr);
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

void
describeCloud(const Options &o, const CloudWorkload &w)
{
    const CloudSetupSpec &s = w.spec;
    Json j;
    j.str("workload", o.workload)
        .u64("seed", o.seed)
        .str("profile", s.name)
        .u64("hosts", static_cast<std::uint64_t>(s.infra.hosts))
        .u64("datastores", static_cast<std::uint64_t>(s.infra.datastores))
        .u64("tenants", s.tenants.size())
        .u64("templates", s.templates.size())
        .num("rate_per_hour", s.workload.arrival.rate_per_hour)
        .num("hours", toHours(s.workload.duration))
        .u64("racks", static_cast<std::uint64_t>(
                          s.infra.network.fabric.racks))
        .u64("spines", static_cast<std::uint64_t>(
                           s.infra.network.fabric.spines))
        .u64("leaf_spine", s.infra.network.fabric.preset ==
                               FabricPreset::LeafSpine)
        .u64("shards", static_cast<std::uint64_t>(s.exec.shards))
        .str("chaos", w.observed ? kObservedChaos : "")
        .u64("observed", w.observed);
    std::printf("%s\n", j.text().c_str());
}

void
runCloud(const Options &o, Json &j)
{
    CloudWorkload w = cloudWorkload(o);

    Timings t;
    std::unique_ptr<CloudStack> st;
    {
        PB_SPAN(Setup);
        auto t0 = Clock::now();
        st = buildCloud(w, o.seed, o.out);
        t.setup_s = secondsSince(t0);
    }
    CloudSimulation &cs = *st->cs;

    auto sim_t0 = Clock::now();
    if (o.single) {
        PB_SPAN(SimRun);
        cs.run();
    } else {
        SimTime end = cs.engine().now() + w.spec.workload.duration +
            minutes(30); // CloudSimulation::run()'s default drain
        cs.start();
        while (cs.engine().now() < end) {
            SimTime until = std::min(end, cs.engine().now() + kSlice);
            PB_SPAN(SimRun);
            auto t0 = Clock::now();
            cs.engine().runUntil(until);
            t.slice_ms.push_back(1e3 * secondsSince(t0));
        }
    }
    t.sim_s = secondsSince(sim_t0);

    std::string report;
    {
        PB_SPAN(Report);
        auto t0 = Clock::now();
        report = cloudReport(*st);
        t.analysis_report_s = secondsSince(t0);
    }
    if (st->emitter) {
        PB_SPAN(TelemetryEnd);
        auto t0 = Clock::now();
        report += finishTelemetry(*st);
        t.telemetry_finish_s = secondsSince(t0);
    }
    if (st->tracer) {
        PB_SPAN(TraceExport);
        auto t0 = Clock::now();
        if (cs.engine().numShards() > 1)
            flushShardLanes(cs.engine(), *st->tracer);
        if (!writePerfettoJson(*st->tracer, o.out + "/trace.json"))
            fatal("perfbench: cannot write %s", o.out.c_str());
        t.trace_export_s = secondsSince(t0);
    }
    std::string stats_csv, ops_csv;
    {
        PB_SPAN(Dumps);
        stats_csv = cs.stats().toCsv();
        ops_csv = cs.driver().ops().toCsv();
        if (!writeFile(o.out + "/stats.csv", stats_csv) ||
            !writeFile(o.out + "/ops.csv", ops_csv) ||
            !writeFile(o.out + "/report.txt", report))
            fatal("perfbench: cannot write %s", o.out.c_str());
    }

    Outcome oc;
    {
        PB_SPAN(Digest);
        CloudDirector &cloud = cs.cloud();
        ManagementServer &srv = cs.server();
        oc.ops_attempted = srv.opsSubmitted();
        oc.ops_completed = srv.opsCompleted();
        oc.ops_failed = srv.opsFailed();
        oc.deploys_ok = cloud.deploysSucceeded();
        oc.deploys_failed = cloud.deploysFailed();
        oc.undeploys = cloud.undeploysCompleted();
        oc.events = cs.eventsProcessed();
        oc.actions = cs.driver().actions().size();
        std::vector<SimDuration> lat;
        appendLatencies(cs.driver().ops(), lat);
        oc.op_p95_sim_s = p95Seconds(std::move(lat));
        oc.dispatch_util = srv.scheduler().utilization();
        oc.digest = outcomeDigest(oc.deploys_ok, oc.deploys_failed,
                                  oc.undeploys, oc.ops_completed,
                                  oc.ops_failed, srv.bytesMoved(),
                                  stats_csv, ops_csv);
    }
    if (st->tracer) {
        oc.trace_spans = st->tracer->ring().totalRecorded();
        oc.trace_dropped = st->tracer->ring().dropped();
        oc.trace_bytes = fileSize(o.out + "/trace.json");
    }
    if (st->sampler) {
        // The sampler ticks once per period and is never stopped.
        oc.sampler_ticks = static_cast<std::uint64_t>(
            cs.sim().now() / st->sampler->period());
    }
    if (st->emitter) {
        oc.telemetry_snapshots = st->emitter->snapshots();
        oc.telemetry_bytes = fileSize(o.out + "/metrics.ndjson");
    }
    writeResult(o, t, oc, cs.engine(), j);
    PB_SPAN(Teardown);
    st.reset();
}

// ----------------------------------------------------------- federation

/** The federation's generated inputs: one burst size and template
 *  mix per step, drawn from the seed. */
struct FedInputs
{
    std::vector<int> bursts;
    std::vector<std::vector<int>> templates;
};

FedInputs
fedInputs(std::uint64_t seed)
{
    Rng rng(seed);
    FedInputs in;
    for (int k = 0; k < kFedBurstSteps; ++k) {
        int b = static_cast<int>(
            rng.uniformInt(kFedBurstMin, kFedBurstMax));
        in.bursts.push_back(b);
        std::vector<int> t;
        for (int i = 0; i < b; ++i)
            t.push_back(static_cast<int>(rng.uniformInt(0, 1)));
        in.templates.push_back(std::move(t));
    }
    for (int k = 0; k < kFedDrainSteps; ++k) {
        in.bursts.push_back(0);
        in.templates.emplace_back();
    }
    return in;
}

/** Execution shards: one per domain, no more than the host's cores. */
int
fedExecShards()
{
    unsigned cores = std::thread::hardware_concurrency();
    return static_cast<int>(
        std::clamp<unsigned>(cores, 1u, unsigned(kFedDomains)));
}

FederationConfig
fedConfig()
{
    FederationConfig cfg;
    cfg.shards = kFedDomains;
    cfg.hosts_per_shard = kFedHostsPerDomain;
    cfg.host.cores = 16;
    cfg.host.memory = gib(128);
    cfg.host.cpu_overcommit = 8.0;
    cfg.datastores_per_shard = 2;
    cfg.datastore.capacity = gib(2048);
    cfg.datastore.copy_bandwidth = 200.0 * 1024 * 1024;
    cfg.server.dispatch_width = 16;
    cfg.director.pool.max_clones_per_base = 100000;
    return cfg;
}

void
describeFederation(const Options &o)
{
    FedInputs in = fedInputs(o.seed);
    std::uint64_t total = 0;
    std::string steps;
    for (std::size_t k = 0; k < in.bursts.size(); ++k) {
        total += static_cast<std::uint64_t>(in.bursts[k]);
        steps += std::to_string(in.bursts[k]) + ":";
        for (int t : in.templates[k])
            steps += static_cast<char>('0' + t);
        steps += ";";
    }
    Json j;
    j.str("workload", o.workload)
        .u64("seed", o.seed)
        .u64("domains", kFedDomains)
        .u64("hosts_per_domain", kFedHostsPerDomain)
        .u64("exec_shards", static_cast<std::uint64_t>(fedExecShards()))
        .u64("steps", in.bursts.size())
        .u64("deploys", total)
        .str("steps_hash", hex(fnv(steps)));
    std::printf("%s\n", j.text().c_str());
}

void
runFederation(const Options &o, Json &j)
{
    FedInputs in = fedInputs(o.seed);
    const int exec = fedExecShards();

    struct FedStack
    {
        std::unique_ptr<ShardedSimulator> eng;
        std::unique_ptr<StatRegistry> stats;
        std::unique_ptr<CloudFederation> fed;
        /** Finished ops per domain, each written only by the thread
         *  executing that domain. */
        std::vector<OpTrace> ops;
        std::size_t tenant = 0;
        std::size_t tmpl[2] = {0, 0};
    };
    auto build = [&] {
        auto fs = std::make_unique<FedStack>();
        ShardedSimulator::Options eo;
        eo.mode = (o.merge || exec == 1) ? ShardExecMode::Merge
                                         : ShardExecMode::Threaded;
        fs->eng = std::make_unique<ShardedSimulator>(exec, o.seed, eo);
        fs->stats = std::make_unique<StatRegistry>();
        FederationConfig cfg = fedConfig();
        cfg.engine = fs->eng.get();
        fs->fed = std::make_unique<CloudFederation>(fs->eng->shard(0),
                                                    *fs->stats, cfg);
        fs->tenant = fs->fed->addTenant({"org", 0});
        // Short leases recycle capacity between bursts.
        fs->tmpl[0] = fs->fed->createTemplate(
            "web", gib(8), 0.5, 1, gib(1), 1, minutes(30));
        fs->tmpl[1] = fs->fed->createTemplate(
            "batch", gib(16), 0.5, 2, gib(2), 2, minutes(45));
        fs->ops.resize(kFedDomains);
        for (std::size_t d = 0; d < fs->ops.size(); ++d) {
            OpTrace *ops = &fs->ops[d];
            fs->fed->shardServer(d).setTaskObserver(
                [ops](const Task &t) { ops->add(t); });
        }
        return fs;
    };

    Timings t;
    std::unique_ptr<FedStack> fs;
    {
        PB_SPAN(Setup);
        auto t0 = Clock::now();
        fs = build();
        t.setup_s = secondsSince(t0);
    }
    CloudFederation &fed = *fs->fed;
    ShardedSimulator &eng = *fs->eng;

    auto sim_t0 = Clock::now();
    for (std::size_t k = 0; k < in.bursts.size(); ++k) {
        {
            PB_SPAN(Route);
            for (int tmpl : in.templates[k]) {
                if (fed.deploy(fs->tenant, fs->tmpl[tmpl]) < 0)
                    fatal("perfbench: federation routing failed");
            }
        }
        PB_SPAN(SimRun);
        auto t0 = Clock::now();
        eng.runUntil(eng.now() + kSlice);
        t.slice_ms.push_back(1e3 * secondsSince(t0));
    }
    t.sim_s = secondsSince(sim_t0);

    std::string report;
    {
        PB_SPAN(Report);
        auto t0 = Clock::now();
        std::ostringstream r;
        for (std::size_t d = 0; d < fed.numShards(); ++d) {
            auto utils = collectUtilizations(fed.shardServer(d));
            r << "domain " << d << ": "
              << fed.shard(d).deploysSucceeded() << " deploys, "
              << fed.shardServer(d).opsCompleted()
              << " ops, bottleneck " << bottleneckResource(utils)
              << "\n";
        }
        report = r.str();
        t.analysis_report_s = secondsSince(t0);
    }
    std::vector<std::string> stats_csv, ops_csv;
    {
        PB_SPAN(Dumps);
        std::string all_stats;
        for (std::size_t d = 0; d < fed.numShards(); ++d) {
            stats_csv.push_back(fed.shardStats(d).toCsv());
            ops_csv.push_back(fs->ops[d].toCsv());
            all_stats += stats_csv.back();
        }
        if (!writeFile(o.out + "/report.txt", report) ||
            !writeFile(o.out + "/stats.csv", all_stats))
            fatal("perfbench: cannot write %s", o.out.c_str());
    }

    Outcome oc;
    {
        PB_SPAN(Digest);
        std::vector<SimDuration> lat;
        std::string joined;
        for (std::size_t d = 0; d < fed.numShards(); ++d) {
            CloudDirector &dir = fed.shard(d);
            ManagementServer &srv = fed.shardServer(d);
            oc.domain_digests.push_back(outcomeDigest(
                dir.deploysSucceeded(), dir.deploysFailed(),
                dir.undeploysCompleted(), srv.opsCompleted(),
                srv.opsFailed(), srv.bytesMoved(), stats_csv[d],
                ops_csv[d]));
            joined += oc.domain_digests.back() + ";";
            oc.ops_attempted += srv.opsSubmitted();
            oc.ops_completed += srv.opsCompleted();
            oc.ops_failed += srv.opsFailed();
            oc.deploys_ok += dir.deploysSucceeded();
            oc.deploys_failed += dir.deploysFailed();
            oc.undeploys += dir.undeploysCompleted();
            oc.dispatch_util += srv.scheduler().utilization() /
                static_cast<double>(fed.numShards());
            appendLatencies(fs->ops[d], lat);
        }
        oc.op_p95_sim_s = p95Seconds(std::move(lat));
        oc.digest = hex(fnv(joined));
        oc.events = eng.eventsProcessed();
        oc.actions = fed.deploysRouted();
    }
    writeResult(o, t, oc, eng, j);
    PB_SPAN(Teardown);
    fs.reset();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: vcpbench <churn|wide|observed|federation> "
                 "--seed N --out DIR [--single] [--shards N] [--merge] "
                 "[--describe]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    Options o;
    o.workload = argv[1];
    if (o.workload != "churn" && o.workload != "wide" &&
        o.workload != "observed" && o.workload != "federation") {
        usage();
        return 2;
    }
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--seed" && has_value) {
            if (!parseStrictU64(argv[++i], o.seed)) {
                usage();
                return 2;
            }
        } else if (a == "--out" && has_value) {
            o.out = argv[++i];
        } else if (a == "--shards" && has_value) {
            if (!parseStrictPositiveInt(argv[++i], o.shards)) {
                usage();
                return 2;
            }
        } else if (a == "--single") {
            o.single = true;
        } else if (a == "--merge") {
            o.merge = true;
        } else if (a == "--describe") {
            o.describe = true;
        } else {
            usage();
            return 2;
        }
    }
    setLogQuiet(true);
    bool fed = o.workload == "federation";
    try {
        if (o.describe) {
            if (fed)
                describeFederation(o);
            else
                describeCloud(o, cloudWorkload(o));
            return 0;
        }
        Json j;
        {
            PB_SPAN(Main);
            if (fed)
                runFederation(o, j);
            else
                runCloud(o, j);
        }
#ifdef VCPBENCH_TRACED
        j.raw("trace", perfbench::finishTrace(o.out + "/spans.json"));
#endif
        std::printf("%s\n", j.text().c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "vcpbench: %s\n", e.what());
        return 1;
    }
}

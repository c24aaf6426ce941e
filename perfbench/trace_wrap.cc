/**
 * @file
 * Span recorder and link-time wrappers of the traced driver.
 *
 * vcpbench_traced links with -Wl,--wrap=SYM for every __wrap_SYM
 * defined below (CMakeLists.txt collects them from this file), so
 * every call to SYM from another object file — the library's modules
 * calling each other — lands here first.  A call inside SYM's own
 * translation unit is not redirected; such time stays in the
 * caller's span.  The __real_ declarations are weak so a renamed
 * symbol drops out of the trace instead of breaking the link; the
 * self-test checks that each wrapped layer still records calls.
 *
 * Spans nest on a per-thread stack: a span's self time is its length
 * minus the spans it encloses on the same thread.  Times are read
 * from the TSC where there is one (cheap enough for the 10^7 vApp
 * lookups of churn) and converted with a ratio calibrated against
 * steady_clock over the run.  Hot lookups are only counted.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "cloud/cloud_director.hh"
#include "cloud/placement.hh"
#include "controlplane/host_agent.hh"
#include "controlplane/lock_manager.hh"
#include "controlplane/management_server.hh"
#include "infra/fabric.hh"
#include "infra/inventory.hh"
#include "trace_span.hh"

namespace perfbench {
namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::Count);

/** Kept span records (wrapped hot lookups are never kept). */
constexpr std::size_t kMaxRecords = 1u << 21;

struct KindInfo
{
    const char *name;
    const char *layer;
    bool keep; ///< keep individual records for the span file
};

// Indexed by Kind.  The layers are the library's modules; "bench" is
// the benchmark's own work (its digest and the stack's destructors).
constexpr KindInfo kInfo[] = {
    {"bench.main", "bench", true},
    {"workload.setup", "workload", true},
    {"sim.run", "sim", true},
    {"cloud.route", "cloud", true},
    {"analysis.report", "analysis", true},
    {"trace.export", "trace", true},
    {"telemetry.finish", "telemetry", true},
    {"stats.dumps", "stats", true},
    {"bench.digest", "bench", true},
    {"bench.teardown", "bench", true},
    {"cloud.vapp", "cloud", false},
    {"cloud.deploy", "cloud", true},
    {"cloud.undeploy", "cloud", true},
    {"cloud.build", "cloud", true},
    {"cloud.place", "cloud", true},
    {"cp.submit", "controlplane", true},
    {"cp.lock", "controlplane", true},
    {"cp.agent_exec", "controlplane", true},
    {"infra.transfer", "infra", true},
    {"infra.build", "infra", false},
    {"infra.host_lookup", "infra", false},
    {"infra.vm_lookup", "infra", false},
    {"infra.ds_lookup", "infra", false},
    {"infra.place_host_lookup", "infra", false},
};
static_assert(std::size(kInfo) == kKinds, "one KindInfo per Kind");

std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct Totals
{
    std::uint64_t calls[kKinds] = {};
    std::uint64_t total[kKinds] = {};
    std::uint64_t self[kKinds] = {};

    void add(const Totals &o)
    {
        for (std::size_t k = 0; k < kKinds; ++k) {
            calls[k] += o.calls[k];
            total[k] += o.total[k];
            self[k] += o.self[k];
        }
    }
};

struct Record
{
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t tid;
    Kind kind;
};

/** Everything merged from finished threads. */
struct Global
{
    std::mutex mu;
    Totals all;          ///< guarded by mu
    Totals main;         ///< the main thread's own totals
    std::vector<Record> records; ///< guarded by mu
    std::uint64_t dropped = 0;   ///< guarded by mu
    std::uint32_t next_tid = 0;  ///< guarded by mu
};

Global &
global()
{
    static Global g;
    return g;
}

const std::uint64_t g_tick0 = ticks();
const auto g_clock0 = std::chrono::steady_clock::now();

struct ThreadState
{
    struct Frame
    {
        Kind kind;
        std::uint64_t start;
        std::uint64_t child;
    };

    std::uint32_t tid = 0;
    std::vector<Frame> stack;
    Totals totals;
    std::vector<Record> records;
    std::uint64_t dropped = 0;
    int in_place = 0;
    bool merged = false;

    ThreadState()
    {
        std::lock_guard<std::mutex> lock(global().mu);
        tid = global().next_tid++;
        stack.reserve(32);
    }

    /** Fold this thread's spans into the global tables (workers do
     *  it when they exit, the main thread from finishTrace()). */
    void merge()
    {
        if (merged)
            return;
        merged = true;
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mu);
        g.all.add(totals);
        if (tid == 0)
            g.main.add(totals);
        std::size_t room = kMaxRecords - std::min(kMaxRecords,
                                                  g.records.size());
        std::size_t take = std::min(room, records.size());
        g.records.insert(g.records.end(), records.begin(),
                         records.begin() + take);
        g.dropped += dropped + (records.size() - take);
    }

    ~ThreadState() { merge(); }
};

thread_local ThreadState t_state;

double
secondsPerTick()
{
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g_clock0)
            .count());
    std::uint64_t dt = ticks() - g_tick0;
    return dt ? 1e-9 * ns / static_cast<double>(dt) : 0.0;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

Span::Span(Kind k) noexcept
{
    ThreadState &ts = t_state;
    if (k == Kind::Place)
        ++ts.in_place;
    ts.stack.push_back({k, ticks(), 0});
}

Span::~Span()
{
    ThreadState &ts = t_state;
    std::uint64_t end = ticks();
    ThreadState::Frame f = ts.stack.back();
    ts.stack.pop_back();
    std::uint64_t dur = end - f.start;
    auto k = static_cast<std::size_t>(f.kind);
    ts.totals.calls[k] += 1;
    ts.totals.total[k] += dur;
    ts.totals.self[k] += dur - std::min(dur, f.child);
    if (!ts.stack.empty())
        ts.stack.back().child += dur;
    if (kInfo[k].keep) {
        if (ts.records.size() < kMaxRecords)
            ts.records.push_back({f.start, end, ts.tid, f.kind});
        else
            ++ts.dropped;
    }
    if (f.kind == Kind::Place)
        --ts.in_place;
}

void
count(Kind k) noexcept
{
    ThreadState &ts = t_state;
    ts.totals.calls[static_cast<std::size_t>(k)] += 1;
    if (k == Kind::HostLookup && ts.in_place > 0)
        ts.totals.calls[static_cast<std::size_t>(
            Kind::PlaceHostLookup)] += 1;
}

std::string
finishTrace(const std::string &spans_path)
{
    auto t0 = std::chrono::steady_clock::now();
    double spt = secondsPerTick();
    t_state.merge();
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);

    {
        std::ofstream out(spans_path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < g.records.size(); ++i) {
            const Record &r = g.records[i];
            const KindInfo &ki = kInfo[static_cast<std::size_t>(r.kind)];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << ki.name
                << "\",\"cat\":\"" << ki.layer
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
                << ",\"ts\":" << fmt(1e6 * spt * double(r.start - g_tick0))
                << ",\"dur\":" << fmt(1e6 * spt * double(r.end - r.start))
                << "}";
        }
        out << "\n]}\n";
    }

    std::string kinds;
    for (std::size_t k = 0; k < kKinds; ++k) {
        kinds += std::string(kinds.empty() ? "" : ",") + "\"" +
            kInfo[k].name + "\":{\"calls\":" +
            std::to_string(g.all.calls[k]) +
            ",\"total_s\":" + fmt(spt * double(g.all.total[k])) +
            ",\"self_s\":" + fmt(spt * double(g.all.self[k])) +
            ",\"main_self_s\":" + fmt(spt * double(g.main.self[k])) +
            ",\"layer\":\"" + kInfo[k].layer + "\"}";
    }
    double write_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return "{\"kinds\":{" + kinds + "},\"spans_kept\":" +
        std::to_string(g.records.size()) +
        ",\"spans_dropped\":" + std::to_string(g.dropped) +
        ",\"span_write_s\":" + fmt(write_s) + "}";
}

} // namespace perfbench

// ------------------------------------------------------------ wrappers
//
// One wrapper per wrapped symbol.  Each declares the real function
// with the member function's parameters after an explicit `this`,
// which is how the Itanium C++ ABI passes them.

using perfbench::Kind;
using perfbench::Span;

#define PB_REAL __attribute__((weak))

extern "C" {

// ---- cloud: CloudDirector, PlacementEngine

const vcp::VApp &
__real__ZNK3vcp13CloudDirector4vappENS_2IdINS_9VAppIdTagEEE(
    const vcp::CloudDirector *, vcp::VAppId) PB_REAL;
const vcp::VApp &
__wrap__ZNK3vcp13CloudDirector4vappENS_2IdINS_9VAppIdTagEEE(
    const vcp::CloudDirector *self, vcp::VAppId id)
{
    Span s(Kind::VApp);
    return __real__ZNK3vcp13CloudDirector4vappENS_2IdINS_9VAppIdTagEEE(
        self, id);
}

vcp::VAppId
__real__ZN3vcp13CloudDirector10deployVAppERKNS_13DeployRequestESt8functionIFvRKNS_4VAppEEE(
    vcp::CloudDirector *, const vcp::DeployRequest &,
    vcp::DeployCallback) PB_REAL;
vcp::VAppId
__wrap__ZN3vcp13CloudDirector10deployVAppERKNS_13DeployRequestESt8functionIFvRKNS_4VAppEEE(
    vcp::CloudDirector *self, const vcp::DeployRequest &req,
    vcp::DeployCallback cb)
{
    Span s(Kind::Deploy);
    return __real__ZN3vcp13CloudDirector10deployVAppERKNS_13DeployRequestESt8functionIFvRKNS_4VAppEEE(
        self, req, std::move(cb));
}

bool
__real__ZN3vcp13CloudDirector12undeployVAppENS_2IdINS_9VAppIdTagEEESt8functionIFvRKNS_4VAppEEE(
    vcp::CloudDirector *, vcp::VAppId, vcp::UndeployCallback) PB_REAL;
bool
__wrap__ZN3vcp13CloudDirector12undeployVAppENS_2IdINS_9VAppIdTagEEESt8functionIFvRKNS_4VAppEEE(
    vcp::CloudDirector *self, vcp::VAppId id, vcp::UndeployCallback cb)
{
    Span s(Kind::Undeploy);
    return __real__ZN3vcp13CloudDirector12undeployVAppENS_2IdINS_9VAppIdTagEEESt8functionIFvRKNS_4VAppEEE(
        self, id, std::move(cb));
}

vcp::TenantId
__real__ZN3vcp13CloudDirector9addTenantERKNS_12TenantConfigE(
    vcp::CloudDirector *, const vcp::TenantConfig &) PB_REAL;
vcp::TenantId
__wrap__ZN3vcp13CloudDirector9addTenantERKNS_12TenantConfigE(
    vcp::CloudDirector *self, const vcp::TenantConfig &cfg)
{
    Span s(Kind::CloudBuild);
    return __real__ZN3vcp13CloudDirector9addTenantERKNS_12TenantConfigE(
        self, cfg);
}

vcp::TemplateId
__real__ZN3vcp13CloudDirector14createTemplateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_2IdINS_14DatastoreIdTagEEEldilil(
    vcp::CloudDirector *, const std::string &, vcp::DatastoreId,
    vcp::Bytes, double, int, vcp::Bytes, int,
    vcp::SimDuration) PB_REAL;
vcp::TemplateId
__wrap__ZN3vcp13CloudDirector14createTemplateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_2IdINS_14DatastoreIdTagEEEldilil(
    vcp::CloudDirector *self, const std::string &name,
    vcp::DatastoreId ds, vcp::Bytes disk, double fill, int vcpus,
    vcp::Bytes memory, int vm_count, vcp::SimDuration lease)
{
    Span s(Kind::CloudBuild);
    return __real__ZN3vcp13CloudDirector14createTemplateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_2IdINS_14DatastoreIdTagEEEldilil(
        self, name, ds, disk, fill, vcpus, memory, vm_count, lease);
}

vcp::Placement
__real__ZN3vcp15PlacementEngine5placeERKNS_14PlacementQueryE(
    vcp::PlacementEngine *, const vcp::PlacementQuery &) PB_REAL;
vcp::Placement
__wrap__ZN3vcp15PlacementEngine5placeERKNS_14PlacementQueryE(
    vcp::PlacementEngine *self, const vcp::PlacementQuery &q)
{
    Span s(Kind::Place);
    return __real__ZN3vcp15PlacementEngine5placeERKNS_14PlacementQueryE(
        self, q);
}

// ---- controlplane: ManagementServer, LockManager, HostAgent

vcp::TaskId
__real__ZN3vcp16ManagementServer6submitERKNS_9OpRequestESt8functionIFvRKNS_4TaskEEE(
    vcp::ManagementServer *, const vcp::OpRequest &,
    vcp::TaskCallback) PB_REAL;
vcp::TaskId
__wrap__ZN3vcp16ManagementServer6submitERKNS_9OpRequestESt8functionIFvRKNS_4TaskEEE(
    vcp::ManagementServer *self, const vcp::OpRequest &req,
    vcp::TaskCallback cb)
{
    Span s(Kind::Submit);
    return __real__ZN3vcp16ManagementServer6submitERKNS_9OpRequestESt8functionIFvRKNS_4TaskEEE(
        self, req, std::move(cb));
}

void
__real__ZN3vcp11LockManager10acquireAllESt6vectorINS_11LockRequestESaIS2_EENS_12InlineActionE(
    vcp::LockManager *, std::vector<vcp::LockRequest>,
    vcp::InlineAction) PB_REAL;
void
__wrap__ZN3vcp11LockManager10acquireAllESt6vectorINS_11LockRequestESaIS2_EENS_12InlineActionE(
    vcp::LockManager *self, std::vector<vcp::LockRequest> reqs,
    vcp::InlineAction granted)
{
    Span s(Kind::Lock);
    __real__ZN3vcp11LockManager10acquireAllESt6vectorINS_11LockRequestESaIS2_EENS_12InlineActionE(
        self, std::move(reqs), std::move(granted));
}

void
__real__ZN3vcp9HostAgent7executeElNS_12InlineActionE(
    vcp::HostAgent *, vcp::SimDuration, vcp::InlineAction) PB_REAL;
void
__wrap__ZN3vcp9HostAgent7executeElNS_12InlineActionE(
    vcp::HostAgent *self, vcp::SimDuration service,
    vcp::InlineAction done)
{
    Span s(Kind::AgentExec);
    __real__ZN3vcp9HostAgent7executeElNS_12InlineActionE(
        self, service, std::move(done));
}

// ---- infra: Fabric, Inventory

vcp::FabricTransferId
__real__ZN3vcp6Fabric13startTransferEiilNS_12InlineActionES1_lh(
    vcp::Fabric *, vcp::FabricNodeId, vcp::FabricNodeId, vcp::Bytes,
    vcp::InlineAction, vcp::InlineAction, std::int64_t,
    std::uint8_t) PB_REAL;
vcp::FabricTransferId
__wrap__ZN3vcp6Fabric13startTransferEiilNS_12InlineActionES1_lh(
    vcp::Fabric *self, vcp::FabricNodeId src, vcp::FabricNodeId dst,
    vcp::Bytes bytes, vcp::InlineAction on_done,
    vcp::InlineAction on_error, std::int64_t trace_task,
    std::uint8_t trace_op)
{
    Span s(Kind::Transfer);
    return __real__ZN3vcp6Fabric13startTransferEiilNS_12InlineActionES1_lh(
        self, src, dst, bytes, std::move(on_done), std::move(on_error),
        trace_task, trace_op);
}

void
__real__ZN3vcp6Fabric10attachHostENS_2IdINS_9HostIdTagEEEi(
    vcp::Fabric *, vcp::HostId, int) PB_REAL;
void
__wrap__ZN3vcp6Fabric10attachHostENS_2IdINS_9HostIdTagEEEi(
    vcp::Fabric *self, vcp::HostId h, int rack)
{
    Span s(Kind::InfraBuild);
    __real__ZN3vcp6Fabric10attachHostENS_2IdINS_9HostIdTagEEEi(self, h,
                                                                 rack);
}

void
__real__ZN3vcp6Fabric15attachDatastoreENS_2IdINS_14DatastoreIdTagEEEi(
    vcp::Fabric *, vcp::DatastoreId, int) PB_REAL;
void
__wrap__ZN3vcp6Fabric15attachDatastoreENS_2IdINS_14DatastoreIdTagEEEi(
    vcp::Fabric *self, vcp::DatastoreId d, int rack)
{
    Span s(Kind::InfraBuild);
    __real__ZN3vcp6Fabric15attachDatastoreENS_2IdINS_14DatastoreIdTagEEEi(
        self, d, rack);
}

vcp::HostId
__real__ZN3vcp9Inventory7addHostERKNS_10HostConfigE(
    vcp::Inventory *, const vcp::HostConfig &) PB_REAL;
vcp::HostId
__wrap__ZN3vcp9Inventory7addHostERKNS_10HostConfigE(
    vcp::Inventory *self, const vcp::HostConfig &cfg)
{
    Span s(Kind::InfraBuild);
    return __real__ZN3vcp9Inventory7addHostERKNS_10HostConfigE(self, cfg);
}

vcp::DatastoreId
__real__ZN3vcp9Inventory12addDatastoreERKNS_15DatastoreConfigE(
    vcp::Inventory *, const vcp::DatastoreConfig &) PB_REAL;
vcp::DatastoreId
__wrap__ZN3vcp9Inventory12addDatastoreERKNS_15DatastoreConfigE(
    vcp::Inventory *self, const vcp::DatastoreConfig &cfg)
{
    Span s(Kind::InfraBuild);
    return __real__ZN3vcp9Inventory12addDatastoreERKNS_15DatastoreConfigE(
        self, cfg);
}

void
__real__ZN3vcp9Inventory22connectHostToDatastoreENS_2IdINS_9HostIdTagEEENS1_INS_14DatastoreIdTagEEE(
    vcp::Inventory *, vcp::HostId, vcp::DatastoreId) PB_REAL;
void
__wrap__ZN3vcp9Inventory22connectHostToDatastoreENS_2IdINS_9HostIdTagEEENS1_INS_14DatastoreIdTagEEE(
    vcp::Inventory *self, vcp::HostId h, vcp::DatastoreId d)
{
    Span s(Kind::InfraBuild);
    __real__ZN3vcp9Inventory22connectHostToDatastoreENS_2IdINS_9HostIdTagEEENS1_INS_14DatastoreIdTagEEE(
        self, h, d);
}

void
__real__ZN3vcp9Inventory19assignHostToClusterENS_2IdINS_9HostIdTagEEENS1_INS_12ClusterIdTagEEE(
    vcp::Inventory *, vcp::HostId, vcp::ClusterId) PB_REAL;
void
__wrap__ZN3vcp9Inventory19assignHostToClusterENS_2IdINS_9HostIdTagEEENS1_INS_12ClusterIdTagEEE(
    vcp::Inventory *self, vcp::HostId h, vcp::ClusterId c)
{
    Span s(Kind::InfraBuild);
    __real__ZN3vcp9Inventory19assignHostToClusterENS_2IdINS_9HostIdTagEEENS1_INS_12ClusterIdTagEEE(
        self, h, c);
}

vcp::Host &
__real__ZN3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(
    vcp::Inventory *, vcp::HostId) PB_REAL;
vcp::Host &
__wrap__ZN3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(
    vcp::Inventory *self, vcp::HostId id)
{
    perfbench::count(Kind::HostLookup);
    return __real__ZN3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(self, id);
}

const vcp::Host &
__real__ZNK3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(
    const vcp::Inventory *, vcp::HostId) PB_REAL;
const vcp::Host &
__wrap__ZNK3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(
    const vcp::Inventory *self, vcp::HostId id)
{
    perfbench::count(Kind::HostLookup);
    return __real__ZNK3vcp9Inventory4hostENS_2IdINS_9HostIdTagEEE(self,
                                                                   id);
}

vcp::Vm &
__real__ZN3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(vcp::Inventory *,
                                                   vcp::VmId) PB_REAL;
vcp::Vm &
__wrap__ZN3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(vcp::Inventory *self,
                                                   vcp::VmId id)
{
    perfbench::count(Kind::VmLookup);
    return __real__ZN3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(self, id);
}

const vcp::Vm &
__real__ZNK3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(
    const vcp::Inventory *, vcp::VmId) PB_REAL;
const vcp::Vm &
__wrap__ZNK3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(
    const vcp::Inventory *self, vcp::VmId id)
{
    perfbench::count(Kind::VmLookup);
    return __real__ZNK3vcp9Inventory2vmENS_2IdINS_7VmIdTagEEE(self, id);
}

vcp::Datastore &
__real__ZN3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
    vcp::Inventory *, vcp::DatastoreId) PB_REAL;
vcp::Datastore &
__wrap__ZN3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
    vcp::Inventory *self, vcp::DatastoreId id)
{
    perfbench::count(Kind::DsLookup);
    return __real__ZN3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
        self, id);
}

const vcp::Datastore &
__real__ZNK3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
    const vcp::Inventory *, vcp::DatastoreId) PB_REAL;
const vcp::Datastore &
__wrap__ZNK3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
    const vcp::Inventory *self, vcp::DatastoreId id)
{
    perfbench::count(Kind::DsLookup);
    return __real__ZNK3vcp9Inventory9datastoreENS_2IdINS_14DatastoreIdTagEEE(
        self, id);
}

} // extern "C"

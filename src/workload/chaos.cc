#include "workload/chaos.hh"

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "telemetry/telemetry.hh"

namespace vcp {

const char *
faultFamilyName(FaultFamily f)
{
    switch (f) {
      case FaultFamily::HostCrash:
        return "crash";
      case FaultFamily::HostDisconnect:
        return "disconnect";
      case FaultFamily::DbStall:
        return "db-stall";
      case FaultFamily::LinkDown:
        return "link-down";
      case FaultFamily::SwitchDown:
        return "switch-down";
    }
    return "?";
}

bool
faultFamilyFromName(const std::string &name, FaultFamily &out)
{
    for (std::size_t i = 0; i < kNumFaultFamilies; ++i) {
        FaultFamily f = static_cast<FaultFamily>(i);
        if (name == faultFamilyName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

namespace {

/** Parse "90s" / "10m" / "2.5h" into a positive duration. */
bool
parseChaosDuration(const std::string &tok, SimDuration &out,
                   std::string &err)
{
    if (tok.size() < 2) {
        err = "duration '" + tok + "' needs a value and an s|m|h suffix";
        return false;
    }
    double scale = 0;
    switch (tok.back()) {
      case 's':
        scale = 1.0;
        break;
      case 'm':
        scale = 60.0;
        break;
      case 'h':
        scale = 3600.0;
        break;
      default:
        err = "duration '" + tok + "' needs an s|m|h suffix";
        return false;
    }
    std::string num = tok.substr(0, tok.size() - 1);
    double v = 0;
    if (!parseStrictPositiveDouble(num.c_str(), v)) {
        err = "duration '" + tok + "' is not a positive number";
        return false;
    }
    out = seconds(v * scale);
    return true;
}

} // namespace

bool
parseChaosSpec(const std::string &spec, ChaosConfig &out,
               std::string &err)
{
    out.faults.clear();
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;

        std::size_t colon = entry.find(':');
        std::string fam =
            entry.substr(0, colon == std::string::npos ? entry.size()
                                                       : colon);
        FaultSpec fs;
        if (!faultFamilyFromName(fam, fs.family)) {
            err = "unknown fault family '" + fam +
                  "' (want crash|disconnect|db-stall|link-down|"
                  "switch-down)";
            return false;
        }

        std::size_t kpos =
            colon == std::string::npos ? entry.size() : colon + 1;
        while (kpos < entry.size()) {
            std::size_t kend = entry.find(',', kpos);
            if (kend == std::string::npos)
                kend = entry.size();
            std::string kv = entry.substr(kpos, kend - kpos);
            kpos = kend + 1;

            std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                err = "fault parameter '" + kv + "' is not key=value";
                return false;
            }
            std::string key = kv.substr(0, eq);
            std::string val = kv.substr(eq + 1);
            if (key == "mtbf") {
                if (!parseChaosDuration(val, fs.mtbf, err))
                    return false;
            } else if (key == "duration") {
                if (!parseChaosDuration(val, fs.duration, err))
                    return false;
            } else {
                err = "unknown fault parameter '" + key +
                      "' (want mtbf|duration)";
                return false;
            }
        }
        out.faults.push_back(fs);
    }
    if (out.faults.empty()) {
        err = "empty chaos spec";
        return false;
    }
    return true;
}

ChaosEngine::ChaosEngine(ManagementServer &srv_, HaManager &ha_,
                         const ChaosConfig &cfg_, Rng rng_,
                         bool fork_lanes)
    : srv(srv_), ha(ha_), inv(srv_.inventory()),
      sim(srv_.simulator()), cfg(cfg_)
{
    lanes.reserve(cfg.faults.size());
    for (const FaultSpec &fs : cfg.faults)
        lanes.push_back(Lane{fs, fork_lanes ? rng_.fork() : rng_});
}

void
ChaosEngine::start()
{
    if (lanes.empty())
        return;
    running = true;
    for (std::size_t i = 0; i < lanes.size(); ++i)
        armLane(i);
}

void
ChaosEngine::quiesce()
{
    running = false;
    for (HostId h : inv.hostIds()) {
        if (ha.isCrashed(h))
            ha.recoverHost(h);
        else if (!inv.host(h).connected())
            srv.reconcileHost(h);
    }
    db_stall_depth = 0;
    srv.database().setStalled(false);
    Fabric &fab = srv.network().topology();
    if (!fab.degenerate()) {
        for (std::size_t l = 0; l < fab.numLinks(); ++l)
            fab.setLinkUp(static_cast<FabricLinkId>(l), true);
        for (FabricNodeId n : fab.spineNodes())
            fab.setNodeUp(n, true);
        for (FabricNodeId n : fab.torNodes())
            fab.setNodeUp(n, true);
    }
}

void
ChaosEngine::attachTelemetry(TelemetryRegistry *reg)
{
    telem = reg;
    if (!telem)
        return;
    // Instruments are created eagerly so every configured family's
    // series exists (at zero) from the first snapshot on, whether or
    // not its lane ever fires.
    t_injected = telem->counter("chaos.injected");
    t_recovered = telem->counter("chaos.recovered");
    t_recovery_us = telem->histogram("chaos.recovery_us");
    for (const Lane &l : lanes) {
        std::size_t f = static_cast<std::size_t>(l.spec.family);
        std::string base =
            std::string("chaos.") + faultFamilyName(l.spec.family);
        t_fam_injected[f] = telem->counter(base + ".injected");
        t_fam_recovered[f] = telem->counter(base + ".recovered");
    }
}

void
ChaosEngine::armLane(std::size_t lane)
{
    Lane &l = lanes[lane];
    SimDuration gap = static_cast<SimDuration>(
        l.rng.exponential(static_cast<double>(l.spec.mtbf)));
    sim.schedule(gap, [this, lane] {
        if (!running)
            return;
        fireLane(lane);
        armLane(lane);
    });
}

void
ChaosEngine::fireLane(std::size_t lane)
{
    Lane &l = lanes[lane];
    switch (l.spec.family) {
      case FaultFamily::HostCrash:
        injectCrash(l);
        break;
      case FaultFamily::HostDisconnect:
        injectDisconnect(l);
        break;
      case FaultFamily::DbStall:
        injectDbStall(l);
        break;
      case FaultFamily::LinkDown:
        injectLinkDown(l);
        break;
      case FaultFamily::SwitchDown:
        injectSwitchDown(l);
        break;
    }
}

SimDuration
ChaosEngine::drawDuration(Lane &l)
{
    return static_cast<SimDuration>(
        l.rng.exponential(static_cast<double>(l.spec.duration)));
}

HostId
ChaosEngine::pickHost(Lane &l)
{
    std::vector<HostId> candidates;
    for (HostId h : inv.hostIds()) {
        const Host &host = inv.host(h);
        if (host.connected() && !host.inMaintenance() &&
            !ha.isCrashed(h)) {
            candidates.push_back(h);
        }
    }
    if (candidates.empty())
        return HostId();
    std::size_t i = static_cast<std::size_t>(l.rng.uniformInt(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    return candidates[i];
}

void
ChaosEngine::countInjected(FaultFamily family)
{
    std::size_t f = static_cast<std::size_t>(family);
    ++fam_stats[f].injected;
    ++injected_total;
    if (VCP_TELEM_ON(telem)) {
        t_injected->add(sim.now());
        t_fam_injected[f]->add(sim.now());
    }
}

void
ChaosEngine::countRecovered(FaultFamily family, SimTime injected_at)
{
    std::size_t f = static_cast<std::size_t>(family);
    ++fam_stats[f].recovered;
    ++recovered_total;
    fam_stats[f].recovery_us.add(
        static_cast<double>(sim.now() - injected_at));
    if (VCP_TELEM_ON(telem)) {
        t_recovered->add(sim.now());
        t_fam_recovered[f]->add(sim.now());
        t_recovery_us->add(sim.now() - injected_at);
    }
}

void
ChaosEngine::injectCrash(Lane &l)
{
    HostId victim = pickHost(l);
    if (!victim.valid())
        return;
    SimTime at = sim.now();
    ha.crashHost(victim);
    countInjected(FaultFamily::HostCrash);
    sim.schedule(drawDuration(l), [this, victim, at] {
        // A stopped scenario leaves its crashed hosts down —
        // nothing the engine scheduled mutates the cloud after
        // stop().
        if (!running)
            return;
        ha.recoverHost(victim, [this, at](bool ok) {
            if (running && ok)
                countRecovered(FaultFamily::HostCrash, at);
        });
    });
}

void
ChaosEngine::injectDisconnect(Lane &l)
{
    HostId victim = pickHost(l);
    if (!victim.valid())
        return;
    SimTime at = sim.now();
    srv.disconnectHost(victim);
    countInjected(FaultFamily::HostDisconnect);
    sim.schedule(drawDuration(l), [this, victim, at] {
        if (!running)
            return;
        // A crash lane cannot have hit the dark host meanwhile
        // (crashHost refuses disconnected hosts), so the agent is
        // still ours to reconcile.
        srv.reconcileHost(victim, [this, at] {
            if (running)
                countRecovered(FaultFamily::HostDisconnect, at);
        });
    });
}

void
ChaosEngine::injectDbStall(Lane &l)
{
    SimTime at = sim.now();
    if (++db_stall_depth == 1)
        srv.database().setStalled(true);
    countInjected(FaultFamily::DbStall);
    sim.schedule(drawDuration(l), [this, at] {
        // Environmental heals always fire, even after stop():
        // leaving the database wedged forever would deadlock every
        // in-flight op and the drain with it.  Only the accounting
        // is gated.
        if (db_stall_depth > 0 && --db_stall_depth == 0)
            srv.database().setStalled(false);
        if (running)
            countRecovered(FaultFamily::DbStall, at);
    });
}

void
ChaosEngine::injectLinkDown(Lane &l)
{
    Fabric &fab = srv.network().topology();
    if (fab.degenerate() || fab.numLinks() == 0) {
        if (!warned_no_links) {
            warned_no_links = true;
            warn("chaos: link-down lane idle — the degenerate fabric "
                 "has no partitionable links (use --fabric)");
        }
        return;
    }
    std::vector<FabricLinkId> up;
    for (std::size_t i = 0; i < fab.numLinks(); ++i) {
        FabricLinkId id = static_cast<FabricLinkId>(i);
        if (fab.linkUp(id))
            up.push_back(id);
    }
    if (up.empty())
        return;
    FabricLinkId victim = up[static_cast<std::size_t>(l.rng.uniformInt(
        0, static_cast<std::int64_t>(up.size()) - 1))];
    SimTime at = sim.now();
    fab.setLinkUp(victim, false);
    countInjected(FaultFamily::LinkDown);
    sim.schedule(drawDuration(l), [this, victim, at] {
        srv.network().topology().setLinkUp(victim, true);
        if (running)
            countRecovered(FaultFamily::LinkDown, at);
    });
}

void
ChaosEngine::injectSwitchDown(Lane &l)
{
    Fabric &fab = srv.network().topology();
    const std::vector<FabricNodeId> &pool =
        !fab.spineNodes().empty() ? fab.spineNodes() : fab.torNodes();
    if (fab.degenerate() || pool.empty()) {
        if (!warned_no_switches) {
            warned_no_switches = true;
            warn("chaos: switch-down lane idle — the degenerate "
                 "fabric has no switches (use --fabric)");
        }
        return;
    }
    std::vector<FabricNodeId> up;
    for (FabricNodeId n : pool) {
        if (fab.nodeUp(n))
            up.push_back(n);
    }
    if (up.empty())
        return;
    FabricNodeId victim = up[static_cast<std::size_t>(l.rng.uniformInt(
        0, static_cast<std::int64_t>(up.size()) - 1))];
    SimTime at = sim.now();
    fab.setNodeUp(victim, false);
    countInjected(FaultFamily::SwitchDown);
    sim.schedule(drawDuration(l), [this, victim, at] {
        srv.network().topology().setNodeUp(victim, true);
        if (running)
            countRecovered(FaultFamily::SwitchDown, at);
    });
}

} // namespace vcp

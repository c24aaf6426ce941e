#include "telemetry/health.hh"

#include <algorithm>
#include <cinttypes>

#include "telemetry/json_util.hh"

namespace vcp {

using telemetry::jsonEscape;
using telemetry::jsonNum;

namespace {

/**
 * Util-probe names for data-plane resources; everything else
 * (api threads, dispatch slots, db pool, host agents, per-datastore
 * admission slots) is the management control plane the paper
 * interrogates.  "util.datastores" reads the admission slots, not
 * the copy pipes, so it is control plane, as in analysis/bottleneck.
 */
bool
isDataPlane(const std::string &name)
{
    return name == "util.fabric";
}

} // namespace

HealthReport
buildHealthReport(TelemetryRegistry &reg, SimTime now,
                  std::vector<std::string> recent_windows,
                  std::vector<std::pair<std::string, std::uint64_t>>
                      window_wins)
{
    HealthReport hr;
    hr.now_us = now;
    for (const auto &p : reg.utilProbes())
        hr.subsystems.emplace_back(p.name, p.fn());
    std::sort(hr.subsystems.begin(), hr.subsystems.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (!hr.subsystems.empty()) {
        hr.dominant = hr.subsystems.front().first;
        hr.control_plane_limited = !isDataPlane(hr.dominant);
    }
    hr.recent_windows = std::move(recent_windows);
    hr.window_wins = std::move(window_wins);
    std::sort(hr.window_wins.begin(), hr.window_wins.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return hr;
}

void
topKCongested(std::vector<CongestedEntity> &entities, std::size_t k)
{
    std::sort(entities.begin(), entities.end(),
              [](const CongestedEntity &a, const CongestedEntity &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  return a.name < b.name;
              });
    while (!entities.empty()
           && entities.back().utilization <= 0.0)
        entities.pop_back();
    if (entities.size() > k)
        entities.resize(k);
}

std::string
healthText(const HealthReport &hr)
{
    std::string out = "run health report\n";

    Table subs({"subsystem", "utilization", "windows won"});
    for (const auto &[name, util] : hr.subsystems) {
        std::uint64_t wins = 0;
        for (const auto &[wname, wcount] : hr.window_wins)
            if (wname == name)
                wins = wcount;
        subs.row().cell(name).cell(util).cell(wins);
    }
    out += subs.toText();

    out += "dominant bottleneck: "
        + (hr.dominant.empty() ? std::string("(none)") : hr.dominant)
        + (hr.control_plane_limited ? " (control plane)"
                                    : " (data plane)")
        + "\n";

    if (!hr.recent_windows.empty()) {
        out += "recent windows:";
        for (const auto &w : hr.recent_windows)
            out += " " + w;
        out += "\n";
    }
    if (!hr.top_hosts.empty()) {
        Table t({"congested host agents", "utilization"});
        for (const auto &e : hr.top_hosts)
            t.row().cell(e.name).cell(e.utilization);
        out += t.toText();
    }
    if (!hr.top_links.empty()) {
        Table t({"congested fabric links", "utilization"});
        for (const auto &e : hr.top_links)
            t.row().cell(e.name).cell(e.utilization);
        out += t.toText();
    }
    return out;
}

std::string
healthJson(const HealthReport &hr)
{
    std::string j = "{\"type\":\"health\",\"ts_us\":"
        + std::to_string(hr.now_us);

    j += ",\"subsystems\":{";
    bool first = true;
    for (const auto &[name, util] : hr.subsystems) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(name) + "\":" + jsonNum(util);
    }
    j += "}";

    j += ",\"dominant\":\"" + jsonEscape(hr.dominant) + "\"";
    j += ",\"control_plane_limited\":";
    j += hr.control_plane_limited ? "true" : "false";

    j += ",\"window_wins\":{";
    first = true;
    for (const auto &[name, wins] : hr.window_wins) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(name) + "\":" + std::to_string(wins);
    }
    j += "}";

    j += ",\"recent_windows\":[";
    first = true;
    for (const auto &w : hr.recent_windows) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + jsonEscape(w) + "\"";
    }
    j += "]";

    auto entities = [&](const char *key,
                        const std::vector<CongestedEntity> &es) {
        j += ",\"";
        j += key;
        j += "\":[";
        bool f = true;
        for (const auto &e : es) {
            if (!f)
                j += ",";
            f = false;
            j += "{\"name\":\"" + jsonEscape(e.name)
                + "\",\"util\":" + jsonNum(e.utilization) + "}";
        }
        j += "]";
    };
    entities("top_hosts", hr.top_hosts);
    entities("top_links", hr.top_links);

    j += "}";
    return j;
}

} // namespace vcp

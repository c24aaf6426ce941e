/**
 * @file
 * End-of-run health report: per-subsystem utilization, the dominant
 * bottleneck over snapshot windows, and top-k congested entities.
 *
 * The report is the run's verdict in the paper's terms — *which
 * plane saturated first* — computed purely from the streaming
 * telemetry (util probes plus the emitter's per-window dominant
 * history), so it costs nothing beyond what the run already
 * collected.  The verdict is the one dominantResource() rule of
 * telemetry.hh, also used by analysis/bottleneck and the emitter:
 * highest utilization, ties to the probe registered first, "none"
 * when every probe reads 0; the plane is the one the probe was
 * registered with.  It renders two ways: an aligned-text table for
 * the terminal, and a `{"type":"health"}` ND-JSON line appended to
 * the metrics stream so downstream tooling sees one self-contained
 * file.
 */

#ifndef VCP_TELEMETRY_HEALTH_HH
#define VCP_TELEMETRY_HEALTH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/table.hh"
#include "telemetry/telemetry.hh"

namespace vcp {

/** One congested entity (host agent, fabric link) with its load. */
struct CongestedEntity
{
    std::string name;
    double utilization = 0.0;
};

/** Snapshot of run health at a moment (normally end of run). */
struct HealthReport
{
    std::int64_t now_us = 0;
    /** Subsystem utilizations, sorted descending (ties by name). */
    std::vector<ResourceUtilization> subsystems;
    /** Dominant subsystem overall ("none" when all idle). */
    std::string dominant;
    /** True when the dominant subsystem is a control-plane resource. */
    bool control_plane_limited = false;
    /** Dominant subsystem of each recent snapshot window (oldest first). */
    std::vector<std::string> recent_windows;
    /** Windows "won" per subsystem over the whole run. */
    std::vector<std::pair<std::string, std::uint64_t>> window_wins;
    /** Top-k congested entities, filled by the caller (optional). */
    std::vector<CongestedEntity> top_hosts;
    std::vector<CongestedEntity> top_links;
};

/**
 * Build a report from the registry's util probes plus the emitter's
 * per-window dominant history (pass empty vectors when no emitter
 * ran).  Top-k entity lists are left empty for the caller to fill —
 * the registry deliberately has no per-entity instruments.
 */
HealthReport
buildHealthReport(TelemetryRegistry &reg, SimTime now,
                  std::vector<std::string> recent_windows,
                  std::vector<std::pair<std::string, std::uint64_t>>
                      window_wins);

/**
 * Sort @p entities by utilization descending (ties by name) and keep
 * the @p k busiest non-idle ones — the caller fills a full list and
 * this trims it to report shape.
 */
void topKCongested(std::vector<CongestedEntity> &entities,
                   std::size_t k = 5);

/** Render the report as an aligned-text table block. */
std::string healthText(const HealthReport &hr);

/** Render the report as one `{"type":"health"}` ND-JSON line (no \n). */
std::string healthJson(const HealthReport &hr);

} // namespace vcp

#endif // VCP_TELEMETRY_HEALTH_HH

/**
 * @file
 * Bottleneck attribution: gathers the mean utilization of every
 * bounded control-plane and data-plane resource so a run can answer
 * the paper's central question — *which* plane limits provisioning.
 *
 * The readings come from ManagementServer's per-resource
 * utilization readers, the same ones the telemetry util probes call,
 * and reading them creates no agent or slot center.  The verdict —
 * bottleneckResource() and controlPlaneLimited() — is the one
 * dominantResource() rule of telemetry/telemetry.hh that the health
 * report and the snapshot emitter also use: highest utilization,
 * ties to the entry listed first, "none" when nothing is above 0.
 */

#ifndef VCP_ANALYSIS_BOTTLENECK_HH
#define VCP_ANALYSIS_BOTTLENECK_HH

#include <string>
#include <vector>

#include "controlplane/management_server.hh"
#include "stats/table.hh"
#include "telemetry/telemetry.hh"

namespace vcp {

/**
 * Collect utilizations: API threads, dispatch slots, DB connections,
 * host agents and datastore admission slots (mean and max across the
 * inventory), datastore copy pipes (mean and max), and the network
 * fabric's busiest link.
 */
std::vector<ResourceUtilization>
collectUtilizations(ManagementServer &srv);

/** Render the utilizations as a table, most-loaded first. */
Table utilizationTable(const std::vector<ResourceUtilization> &u);

class SpanTracer;

/** One pipeline phase's share of all span-recorded op time. */
struct PhaseAttribution
{
    std::string phase;

    /** Total time recorded in this phase across all op types (ms). */
    double total_ms = 0.0;

    /** Share of the sum over all phases, in [0, 1]. */
    double fraction = 0.0;
};

/**
 * Live bottleneck attribution from span data: where operation time
 * actually went, phase by phase, largest share first.  Complements
 * collectUtilizations() — a resource can be the bottleneck without
 * being saturated (lock serialization, for instance).
 */
std::vector<PhaseAttribution> attributePhases(const SpanTracer &tracer);

/** Render an attribution as a table (phase, total_ms, fraction). */
Table phaseAttributionTable(const std::vector<PhaseAttribution> &a);

/** Name of the phase with the largest share ("none" if no spans). */
std::string dominantPhase(const SpanTracer &tracer);

} // namespace vcp

#endif // VCP_ANALYSIS_BOTTLENECK_HH

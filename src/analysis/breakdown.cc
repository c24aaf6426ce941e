#include "analysis/breakdown.hh"

#include "trace/tracer.hh"

namespace vcp {

double
PhaseBreakdown::fraction(TaskPhase p) const
{
    if (total_mean_us <= 0.0)
        return 0.0;
    return mean_us[static_cast<std::size_t>(p)] / total_mean_us;
}

PhaseBreakdown
computeBreakdown(const OpTrace &trace, OpType type)
{
    PhaseBreakdown b;
    b.type = type;
    double total = 0.0;
    std::array<double, kNumTaskPhases> sums{};
    for (const OpRecord &r : trace.all()) {
        if (r.type != type || !r.success)
            continue;
        b.count += 1;
        total += static_cast<double>(r.latency);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            sums[p] += static_cast<double>(r.phases[p]);
    }
    if (b.count == 0)
        return b;
    double n = static_cast<double>(b.count);
    b.total_mean_us = total / n;
    for (std::size_t p = 0; p < kNumTaskPhases; ++p)
        b.mean_us[p] = sums[p] / n;
    return b;
}

Table
breakdownTable(const OpTrace &trace, const std::vector<OpType> &types)
{
    std::vector<std::string> cols = {"op", "count"};
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        cols.push_back(std::string(taskPhaseName(
                           static_cast<TaskPhase>(p))) +
                       "_ms");
    }
    cols.push_back("total_ms");

    Table t(cols);
    for (OpType type : types) {
        PhaseBreakdown b = computeBreakdown(trace, type);
        t.row().cell(opTypeName(type)).cell(b.count);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            t.cell(b.mean_us[p] / 1000.0, 2);
        t.cell(b.total_mean_us / 1000.0, 2);
    }
    return t;
}

namespace {

/** Append one count/mean/p50/p95/p99 row tail (usec in, ms out). */
void
percentileCells(Table &t, const LatencyHistogram &h)
{
    t.cell(h.count())
        .cell(h.mean() / 1000.0, 2)
        .cell(h.p50() / 1000.0, 2)
        .cell(h.p95() / 1000.0, 2)
        .cell(h.p99() / 1000.0, 2);
}

} // namespace

Table
spanBreakdownTable(const SpanTracer &tracer)
{
    Table t({"op", "phase", "count", "mean_ms", "p50_ms", "p95_ms",
             "p99_ms"});
    const auto &ops = tracer.opNames();
    const auto &phases = tracer.phaseNames();
    for (std::size_t o = 0; o < ops.size(); ++o) {
        bool any = tracer.opHistogram(o).count() > 0;
        for (std::size_t p = 0; !any && p < phases.size(); ++p)
            any = tracer.phaseHistogram(o, p).count() > 0;
        if (!any)
            continue;
        for (std::size_t p = 0; p < phases.size(); ++p) {
            const LatencyHistogram &h = tracer.phaseHistogram(o, p);
            if (h.count() == 0)
                continue;
            t.row().cell(ops[o]).cell(phases[p]);
            percentileCells(t, h);
        }
        const LatencyHistogram &oh = tracer.opHistogram(o);
        if (oh.count() > 0) {
            t.row().cell(ops[o]).cell("total");
            percentileCells(t, oh);
        }
    }
    return t;
}

} // namespace vcp

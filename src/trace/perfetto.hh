/**
 * @file
 * Chrome/Perfetto trace_event JSON export.
 *
 * Serializes a SpanTracer's ring into the legacy trace_event JSON
 * format (the `{"traceEvents": [...]}` object) that both
 * chrome://tracing and ui.perfetto.dev load directly.  Sim ticks are
 * microseconds, which is exactly the unit trace_event expects for
 * `ts`/`dur`, so timestamps pass through untranslated.
 *
 * Layout: operations are packed onto a small set of virtual "op lane"
 * threads (greedy interval-graph coloring at export time), so each
 * lane shows a stack of non-overlapping op spans with their phase and
 * sub-phase slices properly nested inside.  Cloud-level spans
 * (deploys, rebalance passes, lock waits) get per-name lane groups,
 * and counter samples become "C" counter tracks.
 *
 * Both entry points run one emitter that walks the ring in place and
 * writes through a fixed buffer, so they produce the same bytes; the
 * file export never copies the ring or holds the whole text.
 */

#ifndef VCP_TRACE_PERFETTO_HH
#define VCP_TRACE_PERFETTO_HH

#include <string>

#include "trace/tracer.hh"

namespace vcp {

/** Render the tracer's ring as trace_event JSON. */
std::string exportPerfettoJson(const SpanTracer &tracer);

/**
 * Stream the JSON to @p path.
 * @return false (with a warning) if the file cannot be opened or a
 *         write fails (e.g. the disk is full).
 */
bool writePerfettoJson(const SpanTracer &tracer,
                       const std::string &path);

} // namespace vcp

#endif // VCP_TRACE_PERFETTO_HH

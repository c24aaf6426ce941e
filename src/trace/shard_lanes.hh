/**
 * @file
 * Per-shard tracer lanes for sharded runs.
 *
 * After a sharded run, each shard's executed-event count becomes a
 * final "shardK.events" counter in the Perfetto export.  Lives in the
 * trace layer (not the kernel) to keep vcp_sim free of trace
 * dependencies.
 */

#ifndef VCP_TRACE_SHARD_LANES_HH
#define VCP_TRACE_SHARD_LANES_HH

namespace vcp {

class ShardedSimulator;
class SpanTracer;

/**
 * Emit one final "shardK.events" counter per shard into @p tracer.
 * Call after the run completes; a no-op when the tracer is disabled.
 */
void flushShardLanes(const ShardedSimulator &engine,
                     SpanTracer &tracer);

} // namespace vcp

#endif // VCP_TRACE_SHARD_LANES_HH

#include "trace/shard_lanes.hh"

#include "sim/shard.hh"
#include "sim/sharded_simulator.hh"
#include "trace/tracer.hh"

namespace vcp {

void
flushShardLanes(const ShardedSimulator &engine, SpanTracer &tracer)
{
    if (!tracer.enabled())
        return;
    for (ShardId s = 0;
         s < static_cast<ShardId>(engine.numShards()); ++s) {
        tracer.recordCounter(
            tracer.intern(ShardMap::label(s) + ".events"),
            engine.shard(s).now(),
            static_cast<std::int64_t>(engine.shardStats(s).events));
    }
}

} // namespace vcp

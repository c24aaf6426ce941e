/**
 * @file
 * Shard identity for intra-run parallel execution.
 */

#ifndef VCP_SIM_SHARD_HH
#define VCP_SIM_SHARD_HH

#include <cstdint>

namespace vcp {

/** Index of one event-set shard; 0 is the serialized control shard. */
using ShardId = std::uint32_t;

} // namespace vcp

#endif // VCP_SIM_SHARD_HH

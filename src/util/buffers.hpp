// Capacity policy for per-vertex buffers that are filled and drained every
// superstep (inbox message vectors and their combiner source-tag mirrors).
// Staged outbox rows are not per-vertex: the engine keeps their capacity.
//
// One threshold, applied identically to every such buffer: after a drain,
// capacity above kDrainShrinkElements is released to the allocator, anything
// smaller stays cached for the next superstep. Paired buffers (a message box
// and the source-tag vector mirroring it entry-for-entry) therefore shrink
// in lockstep, so the modeled resident bytes the memory governor reads and
// the real capacities underneath them cannot drift apart buffer by buffer.
#pragma once

#include <cstddef>

namespace pregel {

/// Buffers at or below this many elements keep their capacity across
/// supersteps; larger ones are released after each drain. Reallocating every
/// small box every superstep is pure churn for the common small-frontier
/// case, while a burst-sized buffer held forever is a leak the governor's
/// accounting never sees.
inline constexpr std::size_t kDrainShrinkElements = 64;

/// Drain `v` under the shared policy: clear, then release outsized capacity.
template <class Vec>
inline void shrink_after_drain(Vec& v) {
  v.clear();
  if (v.capacity() > kDrainShrinkElements) v.shrink_to_fit();
}

}  // namespace pregel

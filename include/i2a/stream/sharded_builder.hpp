#pragma once
/// \file stream/sharded_builder.hpp
/// \brief `ShardedBuilder`: the row-sharded serving surface's name for
///        the one streaming builder.
///
/// Row sharding is a layout choice inside `AdjacencyBuilder` (see
/// stream/adjacency_builder.hpp): its `(n, num_shards, p, opts)`
/// constructor and `recover` overload build k ≥ 1 ladders, and the
/// plain builder is k = 1. This alias keeps the sharded spelling for
/// callers that name it, under the same `Semiring` constraint.

#include "algebra/concepts.hpp"
#include "stream/adjacency_builder.hpp"

namespace i2a::stream {

template <typename P>
  requires algebra::Semiring<P>
using ShardedBuilder = AdjacencyBuilder<P>;

}  // namespace i2a::stream

// MUST NOT COMPILE — negative compile test for `Semiring` on the
// sharded serving layer. ShardedBuilder names the one streaming builder
// with k row-sharded ladders fused by a cross-run ⊕-fold, and the alias
// carries the same `Semiring` constraint: naming the specialization
// with a non-semiring pair is ill-formed.

#include "algebra/non_examples.hpp"
#include "stream/sharded_builder.hpp"

int main() {
  i2a::stream::ShardedBuilder<i2a::algebra::MaxPlusNonNeg<double>> sharded(
      4, 2, i2a::algebra::MaxPlusNonNeg<double>{}, i2a::stream::Options{});
  return sharded.num_shards() == 2 ? 0 : 1;
}

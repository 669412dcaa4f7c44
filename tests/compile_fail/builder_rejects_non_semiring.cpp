// MUST NOT COMPILE — negative compile test for `Semiring` on the
// streaming layer. AdjacencyBuilder's per-batch delta is a full ⊕.⊗
// product and the ladder regroups the ⊕-fold, so the class template
// itself carries the constraint: naming the specialization with a
// non-semiring pair is ill-formed.

#include "algebra/non_examples.hpp"
#include "stream/adjacency_builder.hpp"

int main() {
  i2a::stream::AdjacencyBuilder<i2a::algebra::MaxPlusNonNeg<double>> builder(
      4, i2a::algebra::MaxPlusNonNeg<double>{}, i2a::stream::Options{});
  return builder.num_vertices() == 4 ? 0 : 1;
}

/// \file test_staging.cpp
/// \brief Differential suite for the direct per-edge staging fold
///        (`graph::fold_adjacency`): for every Table I pair, weighted
///        and unweighted, its bytes must equal the incidence + SpGEMM
///        construction it replaces on the streaming write path —
///        `build_adjacency` / `weighted_incidence_arrays` +
///        `adjacency_array` — on duplicate-heavy, self-loop, single-row,
///        empty and shuffled batches, at a width where the product runs
///        its Gustavson kernel and one where it runs its heap kernel.
///        An FP +.* batch with weights 1e16, 1, -1e16 on one (src, dst)
///        makes the ⊕ order visible: every kernel must fold parallel
///        edges in edge order. The Section III counterexample pairs that
///        still satisfy `Semiring` are held to the same agreement.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/concepts.hpp"
#include "algebra/non_examples.hpp"
#include "algebra/pairs.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/hypercsr.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

constexpr sparse::SpGemmAlgo kAlgos[] = {
    sparse::SpGemmAlgo::kGustavson, sparse::SpGemmAlgo::kHeap,
    sparse::SpGemmAlgo::kHash, sparse::SpGemmAlgo::kAuto};

/// One named batch over n vertices.
struct Batch {
  const char* what;
  index_t n;
  std::vector<graph::Edge> edges;
};

graph::Graph graph_of(const Batch& b) {
  graph::Graph g(b.n);
  g.edges() = b.edges;
  return g;
}

/// The batch shapes, each at a narrow width (the product's kAuto picks
/// Gustavson) and at 2^16 (kAuto picks the heap kernel).
std::vector<Batch> batches() {
  std::vector<Batch> out;
  for (const index_t n : {index_t{40}, index_t{1} << 16}) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(n) * 7919u + 3u);
    const auto pick = [&rng](index_t hi) {
      return static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(hi));
    };
    const auto weight = [&rng] {
      return static_cast<double>(1 + rng.next() % 9);
    };
    out.push_back({"empty", n, {}});
    Batch dup{"duplicate-heavy", n, {}};
    for (int i = 0; i < 300; ++i) {
      dup.edges.push_back({pick(4), pick(3), weight()});
    }
    out.push_back(dup);
    Batch loops{"self-loops", n, {}};
    for (int i = 0; i < 60; ++i) {
      const index_t v = pick(12);
      loops.edges.push_back({v, v, weight()});
      if (i % 3 == 0) loops.edges.push_back({v, pick(12), weight()});
    }
    out.push_back(loops);
    Batch row{"single-row", n, {}};
    for (int i = 0; i < 80; ++i) {
      row.edges.push_back({n - 1, pick(n), weight()});
    }
    out.push_back(row);
    Batch wide{"random", n, {}};
    for (int i = 0; i < 400; ++i) {
      wide.edges.push_back({pick(n), pick(n), weight()});
    }
    for (std::size_t i = 0; i < 100; ++i) wide.edges.push_back(wide.edges[i]);
    out.push_back(wide);
    Batch shuffled{"shuffled", n, dup.edges};
    shuffled.edges.insert(shuffled.edges.end(), loops.edges.begin(),
                          loops.edges.end());
    for (std::size_t i = shuffled.edges.size(); i > 1; --i) {
      std::swap(shuffled.edges[i - 1],
                shuffled.edges[rng.next() % static_cast<std::uint64_t>(i)]);
    }
    out.push_back(shuffled);
  }
  return out;
}

/// The direct fold against the product, both draws, every kernel.
template <typename P>
  requires algebra::Semiring<P>
bool agrees(const P& p, const Batch& b) {
  const graph::Graph g = graph_of(b);
  const std::span<const graph::Edge> edges(b.edges);
  bool ok = true;
  const auto fold_u = graph::fold_adjacency(p, edges, b.n,
                                            graph::unweighted_draw(p));
  const auto fold_w = graph::fold_adjacency(p, edges, b.n,
                                            graph::weighted_draw(p, edges));
  ok = ok && fold_u.is_canonical() && fold_w.is_canonical();
  ok = ok && csr_bitwise_equal(fold_u.to_csr(), graph::build_adjacency(g, p));
  const auto winc = graph::weighted_incidence_arrays(g, p);
  ok = ok &&
       csr_bitwise_equal(fold_w.to_csr(), graph::adjacency_array(p, winc));
  const auto uinc = graph::incidence_arrays(g, p);
  for (const auto algo : kAlgos) {
    ok = ok && csr_bitwise_equal(fold_u.to_csr(),
                                 graph::adjacency_array(p, uinc, algo));
    ok = ok && csr_bitwise_equal(fold_w.to_csr(),
                                 graph::adjacency_array(p, winc, algo));
  }
  // The fold stores only the rows it touches: at 2^16 vertices none of
  // these batches reaches the dense-layout share.
  if (b.n >= index_t{1} << 16) ok = ok && !fold_u.dense();
  return ok;
}

template <typename P>
void check_pair(const P& p) {
  for (const Batch& b : batches()) {
    const bool ok = agrees(p, b);
    CHECK(ok);
    if (!ok) {
      std::printf("  pair %s, batch %s, n=%lld\n",
                  std::string(p.name()).c_str(), b.what,
                  static_cast<long long>(b.n));
    }
  }
}

/// Counterexample pairs enter only where the kernels' `Semiring`
/// constraint admits them; the rest are rejected at compile time.
template <typename P>
void check_if_semiring(const P& p) {
  if constexpr (algebra::Semiring<P>) {
    check_pair(p);
  }
}

void test_table_one_pairs() {
  check_pair(algebra::PlusTimes<double>{});
  check_pair(algebra::MaxTimes<double>{});
  check_pair(algebra::MinTimes<double>{});
  check_pair(algebra::MaxPlus<double>{});
  check_pair(algebra::MinPlus<double>{});
  check_pair(algebra::MaxMin<double>{});
  check_pair(algebra::MinMax<double>{});
  check_pair(algebra::OrAndU8{});
  check_pair(algebra::PlusTimes<std::int64_t>{});
}

void test_counterexample_pairs() {
  check_if_semiring(algebra::SignedPlusTimes<double>{});
  check_if_semiring(algebra::GaloisF2{});
  check_if_semiring(algebra::BitsetUnionIntersect(8));
  check_if_semiring(algebra::MaxPlusNonNeg<double>{});
  static_assert(!algebra::Semiring<algebra::MaxPlusNonNeg<double>>);
}

/// FP +.* where ⊕ order shows in the bytes: 1e16 ⊕ 1 ⊕ -1e16 folds to 0
/// left to right and to 1 in any order that pairs the big terms first.
/// Interleaved with other edges of the same row so the sort has to keep
/// the parallel edges' relative order.
void test_fp_fold_order() {
  const algebra::PlusTimes<double> p;
  for (const index_t n : {index_t{16}, index_t{1} << 16}) {
    Batch b{"fp-order", n, {}};
    b.edges = {{2, 5, 1e16}, {2, 1, 3.0}, {2, 5, 1.0},  {7, 5, 1e16},
               {2, 5, -1e16}, {7, 5, -1e16}, {2, 1, 0.1}, {7, 5, 1.0},
               {2, 1, 0.2},  {2, 5, 0.5}};
    CHECK(agrees(p, b));
    const auto fold = graph::fold_adjacency(
        p, std::span<const graph::Edge>(b.edges), n,
        graph::weighted_draw(p, std::span<const graph::Edge>(b.edges)));
    const auto a = fold.to_csr();
    CHECK_EQ(a.at(2, 5, -1.0), ((1e16 + 1.0) + -1e16) + 0.5);
    CHECK_EQ(a.at(7, 5, -1.0), (1e16 + -1e16) + 1.0);
    CHECK_EQ(a.at(2, 1, -1.0), (3.0 + 0.1) + 0.2);
  }
}

/// The layout follows the density bar: the same content is hypersparse
/// in a wide row space and dense in a narrow one, and round-trips
/// through the classic array byte for byte either way.
void test_layout_by_density() {
  const algebra::PlusTimes<double> p;
  std::vector<graph::Edge> edges;
  for (index_t v = 0; v < 8; ++v) edges.push_back({3 * v, v, 1.0});
  const std::span<const graph::Edge> es(edges);
  const auto wide = graph::fold_adjacency(p, es, 9 * sparse::kDenseRowShare,
                                          graph::unweighted_draw(p));
  const auto narrow = graph::fold_adjacency(p, es, 8 * sparse::kDenseRowShare,
                                            graph::unweighted_draw(p));
  CHECK(!wide.dense());
  CHECK(narrow.dense());
  CHECK_EQ(wide.row_ids().size(), 8u);
  for (const auto* h : {&wide, &narrow}) {
    CHECK(h->is_canonical());
    const auto csr = h->to_csr();
    CHECK(csr_bitwise_equal(sparse::HyperCsr<double>::from_csr(csr).to_csr(),
                            csr));
    CHECK_EQ(h->row_cols(9).size(), 1u);
    CHECK_EQ(h->row_cols(10).size(), 0u);
  }
}

}  // namespace

int main() {
  test_table_one_pairs();
  test_counterexample_pairs();
  test_fp_fold_order();
  test_layout_by_density();
  return TEST_MAIN_RESULT();
}

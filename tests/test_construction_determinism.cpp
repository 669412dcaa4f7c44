/// \file test_construction_determinism.cpp
/// \brief The construction pipeline must be bit-deterministic end to end:
///        `Csr::from_coo`, `transpose`, `CscView`, the direct incidence
///        assembly, the block-stream generators, and `build_adjacency`
///        all produce byte-identical results under pool sizes {1, 2, 8}
///        and serially — the construction-side counterpart of
///        test_spgemm_determinism. Full-precision real values throughout,
///        so any chunking-dependent reorder would flip bits. At n = 2^20
///        with 16384 R-MAT edges — the hypersparse incidence view, below
///        the kDenseRowShare bar — `build_adjacency` must also equal the
///        direct per-edge fold (`fold_adjacency`) byte for byte.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// Byte-identical: full-precision == on every component vector.
bool identical(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return i2a::test::csr_bitwise_equal(a, b);
}

bool same_edges(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (std::size_t e = 0; e < a.edges().size(); ++e) {
    const auto& x = a.edges()[e];
    const auto& y = b.edges()[e];
    if (x.src != y.src || x.dst != y.dst || x.weight != y.weight) {
      return false;
    }
  }
  return true;
}

sparse::Coo<double> dup_heavy_coo(index_t nr, index_t nc, int nnz,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  coo.reserve(static_cast<std::size_t>(nnz));
  for (int k = 0; k < nnz; ++k) {
    coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
             rng.uniform(-9.9, 9.9));
  }
  return coo;
}

constexpr sparse::DupPolicy kPolicies[] = {
    sparse::DupPolicy::kSum, sparse::DupPolicy::kKeepFirst,
    sparse::DupPolicy::kKeepLast, sparse::DupPolicy::kMax,
    sparse::DupPolicy::kMin};

void test_from_coo_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto policy : kPolicies) {
    const auto serial =
        sparse::Csr<double>::from_coo(dup_heavy_coo(97, 41, 2300, 7), policy);
    for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      CHECK(identical(
          sparse::Csr<double>::from_coo(dup_heavy_coo(97, 41, 2300, 7),
                                        policy, pool),
          serial));
    }
  }
}

void test_transpose_and_view_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const auto a = sparse::Csr<double>::from_coo(dup_heavy_coo(211, 67, 3100, 9),
                                               sparse::DupPolicy::kSum);
  const auto serial_t = sparse::transpose(a);
  CHECK(serial_t.is_canonical());
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    CHECK(identical(sparse::transpose(a, pool), serial_t));
  }
  // CscView must agree with the materialized transpose entry for entry,
  // at every pool size.
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &pool1, &pool8}) {
    const sparse::CscView<double> view(a, pool);
    CHECK_EQ(view.nrows(), serial_t.nrows());
    bool match = true;
    for (index_t i = 0; i < view.nrows(); ++i) {
      const auto vc = view.row_cols(i);
      const auto tc = serial_t.row_cols(i);
      match &= vc.size() == tc.size();
      if (!match) break;
      for (std::size_t k = 0; k < vc.size(); ++k) {
        match &= vc[k] == tc[k] && view.row_val(i, k) == serial_t.row_vals(i)[k];
      }
    }
    CHECK(match);
  }
}

void test_generators_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  util::ThreadPool* pools[] = {&pool1, &pool2, &pool8};

  const auto rmat_serial = graph::gen::rmat(9, 8, 0.57, 0.19, 0.19, 42);
  const auto er_serial = graph::gen::erdos_renyi(600, 0.01, 43);
  const auto multi_serial = graph::gen::random_multigraph(500, 9000, 44);
  const auto bip_serial = graph::gen::random_bipartite(300, 200, 7, 45);
  CHECK(rmat_serial.num_edges() == 512 * 8);
  CHECK(er_serial.num_edges() > 0);
  for (util::ThreadPool* pool : pools) {
    CHECK(same_edges(graph::gen::rmat(9, 8, 0.57, 0.19, 0.19, 42, pool),
                     rmat_serial));
    CHECK(same_edges(graph::gen::erdos_renyi(600, 0.01, 43, pool), er_serial));
    CHECK(same_edges(graph::gen::random_multigraph(500, 9000, 44, pool),
                     multi_serial));
    CHECK(same_edges(graph::gen::random_bipartite(300, 200, 7, 45, pool),
                     bip_serial));
  }

  auto weighted_serial = graph::gen::rmat(8, 4, 0.57, 0.19, 0.19, 46);
  graph::gen::randomize_weights(weighted_serial, 0.5, 3.5, 47);
  for (util::ThreadPool* pool : pools) {
    auto w = graph::gen::rmat(8, 4, 0.57, 0.19, 0.19, 46, pool);
    graph::gen::randomize_weights(w, 0.5, 3.5, 47, pool);
    CHECK(same_edges(w, weighted_serial));
  }
}

void test_incidence_and_end_to_end_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const auto g = graph::gen::rmat(10, 8, 0.57, 0.19, 0.19, 48);
  const algebra::PlusTimes<double> p;

  const auto inc_serial = graph::incidence_arrays(g, p);
  CHECK(inc_serial.eout.is_canonical() && inc_serial.ein.is_canonical());
  CHECK_EQ(inc_serial.eout.nnz(), g.num_edges());
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto inc = graph::incidence_arrays(g, p, pool);
    CHECK(identical(inc.eout, inc_serial.eout));
    CHECK(identical(inc.ein, inc_serial.ein));
  }

  // Whole pipeline: generator → incidence → adjacency, byte-identical
  // for every pool size (generators included — the graph itself is a
  // pure function of the seed).
  const auto serial = graph::build_adjacency(g, p);
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto gp = graph::gen::rmat(10, 8, 0.57, 0.19, 0.19, 48, pool);
    CHECK(identical(graph::build_adjacency(gp, p, sparse::SpGemmAlgo::kAuto,
                                           pool),
                    serial));
  }
}

/// The hypersparse one-shot build against the streaming builder's
/// staging fold, which shares no code with it past the incidence draw:
/// n = 2^20, the first 16384 edges of an R-MAT stream, unweighted and
/// weighted, every pool size.
void test_hypersparse_build_matches_fold() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const algebra::PlusTimes<double> p;
  auto g = graph::gen::rmat(20, 1, 0.57, 0.19, 0.19, 2);
  g.edges().resize(16384);
  graph::gen::randomize_weights(g, 0.5, 3.5, 3);
  const std::span<const graph::Edge> edges(g.edges());
  const auto inc = graph::incidence_arrays(g, p);
  CHECK(!sparse::CscView<double>(inc.eout).dense());
  const auto hyper = graph::fold_adjacency(p, edges, g.num_vertices(),
                                           graph::unweighted_draw(p));
  const auto fold = hyper.to_csr();
  const auto wfold =
      graph::fold_adjacency(p, edges, g.num_vertices(),
                            graph::weighted_draw(p, edges))
          .to_csr();
  const auto serial = graph::build_adjacency(g, p);
  CHECK(identical(serial, fold));
  // Row by row through the fold's row-id lookup, which shares no code
  // with the row-pointer expansion both conversions above go through.
  bool rows_match = serial.nrows() == hyper.nrows();
  for (index_t r = 0; rows_match && r < serial.nrows(); ++r) {
    const auto hc = hyper.row_cols(r);
    const auto hv = hyper.row_vals(r);
    const auto sc = serial.row_cols(r);
    const auto sv = serial.row_vals(r);
    rows_match = std::equal(hc.begin(), hc.end(), sc.begin(), sc.end()) &&
                 std::equal(hv.begin(), hv.end(), sv.begin(), sv.end());
  }
  CHECK(rows_match);
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    CHECK(identical(
        graph::build_adjacency(g, p, sparse::SpGemmAlgo::kAuto, pool), fold));
    CHECK(identical(graph::adjacency_array(
                        p, graph::weighted_incidence_arrays(g, p, pool),
                        sparse::SpGemmAlgo::kAuto, pool),
                    wfold));
  }
}

}  // namespace

int main() {
  test_from_coo_pool_size_invariance();
  test_transpose_and_view_pool_size_invariance();
  test_generators_pool_size_invariance();
  test_incidence_and_end_to_end_pool_size_invariance();
  test_hypersparse_build_matches_fold();
  return TEST_MAIN_RESULT();
}

/// \file test_spgemm_differential.cpp
/// \brief Differential SpGEMM suite: every sparse kernel (Gustavson,
///        hash, heap, auto) must be *exactly* equal to the dense
///        full-semantics baseline, for all seven Table I operator pairs,
///        serially and under pool sizes {1, 4}, across randomized shapes
///        including empty matrices, empty rows, 1×1, and hyper-sparse.
///
/// Exactness is achievable because inputs are integer-valued doubles in
/// [1, 8]: every ⊗ product and ⊕ fold of the seven pairs is then exact
/// in double regardless of association order, so a single bit of
/// difference between a kernel and the baseline is a real bug, not
/// round-off.
///
/// The hypersparse `CscView` (fewer than ncols / kDenseRowShare entries)
/// is held to the materialized `transpose` entry for entry, on both
/// sides of the bar, and every incidence product over it — `spgemm_at_b`,
/// `build_adjacency`, `reverse_adjacency_array`, the `IncidenceViews`
/// overloads — to the bytes of the engine run over every row of the
/// transposed operand, under every kernel and pools {serial, 1, 4, 8},
/// for every Table I pair and an FP batch whose ⊕ order shows.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

util::ThreadPool* g_pool1 = nullptr;
util::ThreadPool* g_pool4 = nullptr;
util::ThreadPool* g_pool8 = nullptr;

/// Random CSR with integer values drawn from {1, ..., 8} (all inside
/// every Table I carrier, so conformance — and hence pattern equality
/// with the dense baseline — is guaranteed).
sparse::Csr<double> random_int_csr(index_t nr, index_t nc, int nnz,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  if (nr > 0 && nc > 0) {
    for (int k = 0; k < nnz; ++k) {
      coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
               static_cast<double>(rng.between(1, 8)));
    }
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

bool exact_eq(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ptr() == b.row_ptr() && a.cols() == b.cols() &&
         a.vals() == b.vals();
}

constexpr sparse::SpGemmAlgo kAlgos[] = {
    sparse::SpGemmAlgo::kGustavson, sparse::SpGemmAlgo::kHash,
    sparse::SpGemmAlgo::kHeap, sparse::SpGemmAlgo::kAuto};

template <typename P>
void differential_case(const P& p, index_t m, index_t inner, index_t n,
                       int nnz_a, int nnz_b, std::uint64_t seed) {
  const auto a = random_int_csr(m, inner, nnz_a, seed);
  const auto b = random_int_csr(inner, n, nnz_b, seed + 1000);
  const auto ref = sparse::multiply_full_semantics(p, a, b);
  for (const auto algo : kAlgos) {
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo), ref));
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo, g_pool1), ref));
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo, g_pool4), ref));
  }

  // Fused AᵀB rides the same engine through a CSC view; pin it to the
  // baseline on the explicitly transposed operand.
  const auto tall = random_int_csr(inner, m, nnz_a, seed + 2000);
  const auto fused_ref =
      sparse::multiply_full_semantics(p, sparse::transpose(tall), b);
  const sparse::CscView<double> view(tall);
  for (const auto algo : kAlgos) {
    CHECK(exact_eq(sparse::spgemm_at_b(p, tall, b, algo), fused_ref));
    CHECK(exact_eq(sparse::spgemm_at_b(p, view, b, algo, g_pool4), fused_ref));
  }
}

template <typename P>
void run_pair(const P& p, std::uint64_t seed) {
  differential_case(p, 1, 1, 1, 1, 1, seed);            // 1×1
  differential_case(p, 0, 0, 0, 0, 0, seed + 1);        // fully empty
  differential_case(p, 0, 5, 3, 0, 7, seed + 2);        // A has no rows
  differential_case(p, 4, 0, 3, 0, 0, seed + 3);        // empty inner dim
  differential_case(p, 6, 5, 0, 9, 0, seed + 4);        // B has no columns
  differential_case(p, 37, 29, 41, 150, 150, seed + 5); // generic rectangular
  differential_case(p, 24, 24, 24, 400, 400, seed + 6); // dense-ish, collisions
  differential_case(p, 16, 3, 50, 30, 40, seed + 7);    // narrow inner dim
  differential_case(p, 128, 2048, 32, 60, 300, seed + 8);  // hyper-sparse
  differential_case(p, 40, 40, 40, 15, 15, seed + 9);   // mostly empty rows
}

using Entry = sparse::Coo<double>::Entry;

/// A CSR with the given (row, col, val) entries, pushed in order.
sparse::Csr<double> csr_of(index_t nr, index_t nc,
                           const std::vector<Entry>& es) {
  sparse::Coo<double> coo(nr, nc);
  for (const auto& e : es) coo.push(e.row, e.col, e.val);
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

/// `nnz` random entries (row, col) with col in [lo, hi], full-precision
/// values.
sparse::Csr<double> random_cols_csr(index_t nr, index_t nc, int nnz,
                                    index_t lo, index_t hi,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Entry> es;
  for (int k = 0; k < nnz; ++k) {
    es.push_back({rng.between(0, nr - 1), rng.between(lo, hi),
                  rng.uniform(-9.9, 9.9)});
  }
  return csr_of(nr, nc, es);
}

/// Every column accessor of the view against the transposed array, and
/// the slots against the non-empty columns.
bool view_matches_transpose(const sparse::Csr<double>& a) {
  const sparse::CscView<double> view(a);
  const auto at = sparse::transpose(a);
  bool ok = view.nrows() == at.nrows() && view.ncols() == at.ncols() &&
            view.dense() == (a.nnz() >= a.ncols() / sparse::kDenseRowShare);
  std::vector<index_t> stored;
  std::vector<double> scratch;
  for (index_t i = 0; ok && i < at.nrows(); ++i) {
    const auto vc = view.row_cols(i);
    const auto tc = at.row_cols(i);
    const auto tv = at.row_vals(i);
    const auto gathered = view.gather_row_vals(i, scratch);
    ok = view.row_nnz(i) == at.row_nnz(i) &&
         std::equal(vc.begin(), vc.end(), tc.begin(), tc.end()) &&
         std::equal(gathered.begin(), gathered.end(), tv.begin(), tv.end());
    for (std::size_t k = 0; ok && k < tc.size(); ++k) {
      ok = view.row_val(i, k) == tv[k];
    }
    if (at.row_nnz(i) > 0) stored.push_back(i);
    ok = ok && (view.slot_of(i) >= 0 || at.row_nnz(i) == 0);
  }
  if (!view.dense()) {
    ok = ok && view.col_ids() == stored &&
         view.num_slots() == static_cast<index_t>(stored.size());
  } else {
    ok = ok && view.col_ids().empty() && view.num_slots() == view.nrows();
  }
  return ok;
}

void test_view_layouts() {
  // 320 columns: the bar is 10 entries. Columns 0 and 319 stay empty.
  const index_t n = 10 * sparse::kDenseRowShare;
  for (const int nnz : {1, 9, 10, 11, 200}) {
    const auto a = random_cols_csr(40, n, nnz, 1, n - 2,
                                   static_cast<std::uint64_t>(nnz));
    CHECK(view_matches_transpose(a));
    CHECK(sparse::CscView<double>(a).dense() == (nnz >= 10));
  }
  // No entries: zero rows, and rows with nothing in them.
  CHECK(view_matches_transpose(sparse::Csr<double>(
      0, 1000, std::vector<index_t>{0}, {}, {})));
  CHECK(view_matches_transpose(csr_of(7, 1000, {})));
  CHECK(view_matches_transpose(sparse::Csr<double>()));
  // One column holding every entry.
  std::vector<Entry> one;
  for (index_t r = 0; r < 20; ++r) {
    one.push_back({r, 777, static_cast<double>(r) + 0.25});
  }
  const auto single = csr_of(20, 4096, one);
  CHECK(view_matches_transpose(single));
  CHECK_EQ(sparse::CscView<double>(single).num_slots(), 1);
  // Two radix digits, several entries per row, the last column used.
  const auto wide = random_cols_csr(50, index_t{1} << 16, 300, 0,
                                    (index_t{1} << 16) - 1, 77);
  CHECK(view_matches_transpose(wide));
  const auto last = csr_of(3, index_t{1} << 16,
                           {{0, (index_t{1} << 16) - 1, 1.5},
                            {2, (index_t{1} << 16) - 1, 2.5},
                            {1, 0, 3.5}});
  CHECK(view_matches_transpose(last));
}

/// Column ids past 2^32: four radix digits. Too wide to transpose, so
/// the view is held to a stable sort of the entries by column.
void test_view_wide_columns() {
  const index_t n = index_t{1} << 40;
  util::Xoshiro256 rng(91);
  std::vector<Entry> es;
  for (index_t r = 0; r < 64; ++r) {
    const int k = static_cast<int>(rng.between(0, 3));
    for (int j = 0; j < k; ++j) {
      es.push_back({r, rng.between(0, 5) * (n / 6) + rng.between(0, 2),
                    static_cast<double>(r)});
    }
  }
  const auto a = csr_of(64, n, es);
  std::vector<Entry> want;
  for (index_t r = 0; r < a.nrows(); ++r) {
    for (std::size_t k = 0; k < a.row_cols(r).size(); ++k) {
      want.push_back({r, a.row_cols(r)[k], a.row_vals(r)[k]});
    }
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& x, const auto& y) { return x.col < y.col; });
  const sparse::CscView<double> view(a);
  CHECK(!view.dense());
  std::size_t w = 0;
  bool ok = true;
  for (index_t s = 0; s < view.num_slots(); ++s) {
    const index_t col = view.col_ids()[static_cast<std::size_t>(s)];
    ok = ok && view.slot_of(col) == s && view.row_nnz(col) > 0;
    for (std::size_t k = 0; k < view.slot_cols(s).size(); ++k, ++w) {
      ok = ok && w < want.size() && want[w].col == col &&
           want[w].row == view.slot_cols(s)[k] &&
           want[w].val == view.slot_val(s, k);
    }
  }
  CHECK(ok && w == want.size());
  CHECK_EQ(view.row_nnz(n - 1), 0);
}

/// Every incidence product of `edges` against the engine over every row
/// of the transposed incidence array, all kernels × pools.
template <typename P>
bool incidence_products_agree(const P& p, index_t n,
                              const std::vector<graph::Edge>& edges,
                              bool weighted) {
  using T = typename P::value_type;
  graph::Graph g(n);
  g.edges() = edges;
  const auto inc = weighted ? graph::weighted_incidence_arrays(g, p)
                            : graph::incidence_arrays(g, p);
  const auto fwd = sparse::spgemm(p, sparse::transpose(inc.eout), inc.ein);
  const auto rev = sparse::spgemm(p, sparse::transpose(inc.ein), inc.eout);
  bool ok = true;
  const auto same = [&ok](const sparse::Csr<T>& got,
                          const sparse::Csr<T>& want) {
    ok = ok && csr_bitwise_equal(got, want);
  };
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 g_pool1, g_pool4, g_pool8}) {
    const graph::IncidenceViews<T> views(inc, pool);
    ok = ok && views.eout_t.dense() ==
                   (g.num_edges() >= n / sparse::kDenseRowShare);
    for (const auto algo : kAlgos) {
      same(graph::adjacency_array(p, inc, algo, pool), fwd);
      same(graph::adjacency_array(p, views, inc, algo, pool), fwd);
      same(graph::reverse_adjacency_array(p, inc, algo, pool), rev);
      same(graph::reverse_adjacency_array(p, views, inc, algo, pool), rev);
      same(sparse::spgemm_at_b(p, views.eout_t, inc.ein, algo, pool), fwd);
      if (!weighted) same(graph::build_adjacency(g, p, algo, pool), fwd);
    }
  }
  return ok;
}

/// Random edges over [0, n) with parallel edges and self-loops, the
/// first and last vertex left without edges.
std::vector<graph::Edge> random_edges(index_t n, int m, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<graph::Edge> es;
  for (int k = 0; k < m; ++k) {
    const index_t u = rng.between(1, n - 2);
    const index_t v = k % 7 == 0 ? u : rng.between(1, n - 2);
    es.push_back({u, v, static_cast<double>(rng.between(1, 9))});
    if (k % 5 == 0) es.push_back(es.back());
  }
  return es;
}

template <typename P>
void check_incidence_pair(const P& p) {
  const index_t wide = index_t{1} << 14;
  for (const bool weighted : {false, true}) {
    CHECK(incidence_products_agree(p, wide, random_edges(wide, 300, 5),
                                   weighted));
    CHECK(incidence_products_agree(p, 40, random_edges(40, 300, 6),
                                   weighted));
  }
}

void test_incidence_products() {
  check_incidence_pair(algebra::PlusTimes<double>{});
  check_incidence_pair(algebra::MaxTimes<double>{});
  check_incidence_pair(algebra::MinTimes<double>{});
  check_incidence_pair(algebra::MaxPlus<double>{});
  check_incidence_pair(algebra::MinPlus<double>{});
  check_incidence_pair(algebra::MaxMin<double>{});
  check_incidence_pair(algebra::MinMax<double>{});
  check_incidence_pair(algebra::OrAndU8{});
  check_incidence_pair(algebra::PlusTimes<std::int64_t>{});

  // Both sides of the bar, with no edges at all, and the FP batch:
  // 1e16 ⊕ 1 ⊕ -1e16 folds to 0 left to right and to 1 in any order
  // that pairs the big terms first.
  const algebra::PlusTimes<double> p;
  const index_t wide = index_t{1} << 14;
  const int bar = static_cast<int>(wide / sparse::kDenseRowShare);
  for (const int m : {bar - 1, bar}) {
    std::vector<graph::Edge> es;
    util::Xoshiro256 rng(static_cast<std::uint64_t>(m));
    for (int k = 0; k < m; ++k) {
      es.push_back({rng.between(0, wide - 1), rng.between(0, wide - 1),
                    rng.uniform(0.5, 4.0)});
    }
    CHECK(incidence_products_agree(p, wide, es, true));
  }
  CHECK(incidence_products_agree(p, wide, {}, false));
  const std::vector<graph::Edge> fp = {
      {2, 5, 1e16},  {2, 1, 3.0},   {2, 5, 1.0}, {7, 5, 1e16},
      {2, 5, -1e16}, {7, 5, -1e16}, {2, 1, 0.1}, {7, 5, 1.0},
      {2, 1, 0.2},   {2, 5, 0.5}};
  for (const index_t n : {index_t{16}, wide}) {
    CHECK(incidence_products_agree(p, n, fp, true));
    graph::Graph g(n);
    g.edges() = fp;
    const auto a =
        graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
    CHECK_EQ(a.at(2, 5, -1.0), ((1e16 + 1.0) + -1e16) + 0.5);
    CHECK_EQ(a.at(7, 5, -1.0), (1e16 + -1e16) + 1.0);
  }
}

}  // namespace

int main() {
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  util::ThreadPool pool8(8);
  g_pool1 = &pool1;
  g_pool4 = &pool4;
  g_pool8 = &pool8;

  run_pair(algebra::PlusTimes<double>{}, 100);
  run_pair(algebra::MaxTimes<double>{}, 200);
  run_pair(algebra::MinTimes<double>{}, 300);
  run_pair(algebra::MaxPlus<double>{}, 400);
  run_pair(algebra::MinPlus<double>{}, 500);
  run_pair(algebra::MaxMin<double>{}, 600);
  run_pair(algebra::MinMax<double>{}, 700);

  test_view_layouts();
  test_view_wide_columns();
  test_incidence_products();

  return TEST_MAIN_RESULT();
}

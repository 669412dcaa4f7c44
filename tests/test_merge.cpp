/// \file test_merge.cpp
/// \brief Differential + edge-case suite for the parallel semiring
///        ⊕-merge (sparse/merge.hpp): every engine output — through the
///        `Csr` wrappers and on `HyperCsr` runs directly — is bitwise
///        -compared against `merge_add_reference` (a deliberately
///        independent concatenate/stable-sort/fold-left oracle over
///        classic arrays, kept here: it is a test oracle, not API)
///        across pool sizes, covering disjoint and overlapping row sets,
///        empty runs and hypersparse/dense mixes on both sides of the
///        density bar; the Definition I.5 zero-dropping knob, the
///        single-row fold readers use, the `HyperCsr` ↔ `Csr` round
///        trip and the exception-from-chunk semantics are pinned
///        explicitly.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/hypercsr.hpp"
#include "sparse/merge.hpp"
#include "stream/pinned_snapshot.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;
using Hyper = sparse::HyperCsr<double>;

double plus(const double& a, const double& b) { return a + b; }

/// The thread pools every differential runs under (besides serial): a
/// pooled merge cuts its chunks at stored rows, so odd sizes and more
/// threads than rows put chunk boundaries everywhere.
constexpr std::size_t kPools[] = {1, 2, 3, 4, 8};

/// Serial oracle for the differential tests (the `from_coo_reference`
/// pattern): per row, concatenate the runs' entries in run order, stable
/// sort by column, fold left. Deliberately shares no code with the
/// engine.
template <typename T, typename Add>
sparse::Csr<T> merge_add_reference(
    const std::vector<const sparse::Csr<T>*>& runs, const Add& add,
    const T* drop_zero = nullptr) {
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<index_t> cols;
  std::vector<T> vals;
  std::vector<std::pair<index_t, T>> buf;
  for (index_t r = 0; r < nrows; ++r) {
    buf.clear();
    for (const auto* m : runs) {
      const auto cs = m->row_cols(r);
      const auto vs = m->row_vals(r);
      for (std::size_t i = 0; i < cs.size(); ++i) {
        buf.emplace_back(cs[i], vs[i]);
      }
    }
    std::stable_sort(
        buf.begin(), buf.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t i = 0; i < buf.size();) {
      T acc = buf[i].second;
      std::size_t j = i + 1;
      for (; j < buf.size() && buf[j].first == buf[i].first; ++j) {
        acc = add(acc, buf[j].second);
      }
      if (drop_zero == nullptr || !(acc == *drop_zero)) {
        cols.push_back(buf[i].first);
        vals.push_back(acc);
        ++row_ptr[static_cast<std::size_t>(r) + 1];
      }
      i = j;
    }
  }
  for (index_t r = 0; r < nrows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] +=
        row_ptr[static_cast<std::size_t>(r)];
  }
  return sparse::Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
                        std::move(vals));
}

sparse::Csr<double> random_csr(index_t nr, index_t nc, index_t nnz,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  coo.reserve(static_cast<std::size_t>(nnz));
  for (index_t i = 0; i < nnz; ++i) {
    // Integer values keep FP + exact, so fold *order* differences would
    // still be caught while reassociation noise cannot hide them.
    coo.push(static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nr)),
             static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nc)),
             static_cast<double>(1 + rng.next() % 7));
  }
  return sparse::Csr<double>::from_coo(std::move(coo));
}

/// Engine vs oracle across pool sizes {serial, 1, 2, 3, 4, 8}, bitwise.
void check_matches_reference(const std::vector<const sparse::Csr<double>*>& runs,
                             const double* drop_zero = nullptr) {
  const auto expected = merge_add_reference(runs, plus, drop_zero);
  const auto serial = sparse::merge_add_k(runs, plus, nullptr, drop_zero);
  CHECK(csr_bitwise_equal(serial, expected));
  for (const std::size_t threads : kPools) {
    util::ThreadPool pool(threads);
    const auto got = sparse::merge_add_k(runs, plus, &pool, drop_zero);
    CHECK(csr_bitwise_equal(got, expected));
  }
}

void test_empty_delta() {
  const auto master = random_csr(40, 40, 120, 1);
  const sparse::Csr<double> empty(
      40, 40, std::vector<index_t>(41, 0), {}, {});
  check_matches_reference({&master, &empty});
  check_matches_reference({&empty, &master});
  check_matches_reference({&empty, &empty});
  // Merging an empty delta is the identity, bit for bit.
  util::ThreadPool pool(4);
  CHECK(csr_bitwise_equal(sparse::merge_add(master, empty, plus, &pool), master));
}

void test_disjoint_delta() {
  // Master in columns [0, 20), delta in columns [20, 40): pure
  // interleave, ⊕ never fires.
  sparse::Coo<double> ca(30, 40), cb(30, 40);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    ca.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(rng.next() % 20), 2.0);
    cb.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(20 + rng.next() % 20), 3.0);
  }
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  check_matches_reference({&a, &b});
  const auto merged = sparse::merge_add(a, b, plus);
  CHECK_EQ(merged.nnz(), a.nnz() + b.nnz());
}

void test_fully_overlapping_delta() {
  // Identical patterns: every entry folds, nnz stays put, values double.
  const auto a = random_csr(25, 25, 200, 9);
  check_matches_reference({&a, &a});
  const auto merged = sparse::merge_add(a, a, plus);
  CHECK_EQ(merged.nnz(), a.nnz());
  for (index_t r = 0; r < a.nrows(); ++r) {
    const auto mv = merged.row_vals(r);
    const auto av = a.row_vals(r);
    for (std::size_t k = 0; k < mv.size(); ++k) {
      CHECK_EQ(mv[k], 2 * av[k]);
    }
  }
}

void test_kway_random() {
  // The ladder's shape: several runs of very different sizes, merged in
  // one k-way pass, against the oracle, all pool sizes.
  std::vector<sparse::Csr<double>> owned;
  owned.push_back(random_csr(60, 50, 400, 21));
  owned.push_back(random_csr(60, 50, 100, 22));
  owned.push_back(random_csr(60, 50, 25, 23));
  owned.push_back(random_csr(60, 50, 7, 24));
  owned.push_back(sparse::Csr<double>(
      60, 50, std::vector<index_t>(61, 0), {}, {}));
  std::vector<const sparse::Csr<double>*> runs;
  for (const auto& m : owned) runs.push_back(&m);
  check_matches_reference(runs);
  // Fold order is run order: with a non-commutative ⊕ (keep-right),
  // permuting the runs must change the bytes exactly as the oracle says.
  const auto keep_right = [](const double&, const double& y) { return y; };
  std::vector<const sparse::Csr<double>*> reversed(runs.rbegin(),
                                                   runs.rend());
  const auto fwd = sparse::merge_add_k(runs, keep_right);
  const auto rev = sparse::merge_add_k(reversed, keep_right);
  CHECK(csr_bitwise_equal(fwd,
                      merge_add_reference(runs, keep_right)));
  CHECK(csr_bitwise_equal(rev,
                      merge_add_reference(reversed, keep_right)));
}

void test_explicit_zero_entries() {
  // Definition I.5: with the drop_zero knob, stored zeros are absent from
  // the output — whether they were stored in an input or manufactured by
  // the fold (+1 ⊕ -1).
  sparse::Coo<double> ca(4, 4), cb(4, 4);
  ca.push(0, 0, 0.0);   // stored zero, unmatched: dropped
  ca.push(0, 1, 1.0);   // survives
  ca.push(1, 2, 1.0);   // +1 ⊕ -1 → 0: dropped
  ca.push(2, 3, 2.0);   // survives, folded with 3.0
  cb.push(1, 2, -1.0);
  cb.push(2, 3, 3.0);
  cb.push(3, 3, 0.0);   // stored zero in the delta: dropped
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  const double zero = 0.0;
  check_matches_reference({&a, &b}, &zero);
  const auto merged = sparse::merge_add(a, b, plus, nullptr, &zero);
  CHECK_EQ(merged.nnz(), 2);
  CHECK_EQ(merged.at(0, 1, -1.0), 1.0);
  CHECK_EQ(merged.at(2, 3, -1.0), 5.0);
  CHECK_EQ(merged.at(0, 0, -1.0), -1.0);  // absent, not stored-zero
  CHECK_EQ(merged.at(1, 2, -1.0), -1.0);
  CHECK_EQ(merged.at(3, 3, -1.0), -1.0);
  CHECK(merged.is_canonical());
  // Without the knob every stored entry survives, zeros included — the
  // byte-compatible default for SpGEMM-produced inputs.
  const auto kept = sparse::merge_add(a, b, plus);
  CHECK_EQ(kept.nnz(), 5);
  CHECK_EQ(kept.at(0, 0, -1.0), 0.0);
  CHECK_EQ(kept.at(1, 2, -1.0), 0.0);
}

void test_exception_from_chunk() {
  // ⊕ throwing inside a worker chunk must surface on the caller, under
  // every pool size, with and without zero-dropping.
  const auto a = random_csr(64, 32, 300, 31);
  const auto b = random_csr(64, 32, 300, 32);
  struct Boom {};
  const auto throwing = [](const double&, const double&) -> double {
    throw Boom{};
  };
  const double zero = 0.0;
  for (const double* dz : {static_cast<const double*>(nullptr), &zero}) {
    bool threw = false;
    try {
      (void)sparse::merge_add(a, b, throwing, nullptr, dz);
    } catch (const Boom&) {
      threw = true;
    }
    CHECK(threw);
    for (const std::size_t threads : {2u, 8u}) {
      util::ThreadPool pool(threads);
      threw = false;
      try {
        (void)sparse::merge_add(a, b, throwing, &pool, dz);
      } catch (const Boom&) {
        threw = true;
      }
      CHECK(threw);
      // The pool must remain serviceable after capturing the throw.
      const auto ok = sparse::merge_add(a, b, plus, &pool);
      CHECK(csr_bitwise_equal(
          ok, merge_add_reference<double>({&a, &b}, plus)));
    }
  }
}

void test_shape_mismatch_rejected() {
  const auto a = random_csr(10, 10, 20, 41);
  const auto b = random_csr(10, 11, 20, 42);
  bool threw = false;
  try {
    (void)sparse::merge_add(a, b, plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)sparse::merge_add_k(std::vector<const sparse::Csr<double>*>{},
                              plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_zero_row_matrices() {
  const sparse::Csr<double> a(0, 5, {0}, {}, {});
  const sparse::Csr<double> b(0, 5, {0}, {}, {});
  util::ThreadPool pool(4);
  const auto merged = sparse::merge_add(a, b, plus, &pool);
  CHECK_EQ(merged.nrows(), 0);
  CHECK_EQ(merged.nnz(), 0);
}

/// A run whose entries all fall in the rows `rows_from + stride * i`
/// (i < nrows_used): how many rows it stores decides its layout.
Hyper random_run(index_t nr, index_t nc, index_t rows_from, index_t stride,
                 index_t nrows_used, index_t nnz, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  for (index_t i = 0; i < nnz; ++i) {
    const auto slot = static_cast<index_t>(
        rng.next() % static_cast<std::uint64_t>(nrows_used));
    coo.push(rows_from + stride * slot,
             static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nc)),
             static_cast<double>(1 + rng.next() % 7));
  }
  return Hyper::from_csr(sparse::Csr<double>::from_coo(std::move(coo)));
}

/// The HyperCsr engine vs the oracle over the runs' classic arrays,
/// across pool sizes {serial, 1, 2, 3, 4, 8}: same content, and the canonical
/// layout for that content (so also the same bytes).
void check_hyper_matches_reference(const std::vector<const Hyper*>& runs,
                                   const double* drop_zero = nullptr) {
  std::vector<sparse::Csr<double>> classic;
  for (const Hyper* h : runs) classic.push_back(h->to_csr());
  std::vector<const sparse::Csr<double>*> ptrs;
  for (const auto& c : classic) ptrs.push_back(&c);
  const auto expected = merge_add_reference(ptrs, plus, drop_zero);
  const Hyper want = Hyper::from_csr(expected);
  const auto same = [&want](const Hyper& got) {
    return got.is_canonical() && got.dense() == want.dense() &&
           got.row_ids() == want.row_ids() && got.row_ptr() == want.row_ptr() &&
           got.cols() == want.cols() && got.vals() == want.vals();
  };
  CHECK(same(sparse::merge_add_k(runs, plus, nullptr, drop_zero)));
  for (const std::size_t threads : kPools) {
    util::ThreadPool pool(threads);
    CHECK(same(sparse::merge_add_k(runs, plus, &pool, drop_zero)));
  }
}

void test_hyper_row_sets() {
  // 4096 rows: the density bar is 4096 / kDenseRowShare = 128 rows.
  const index_t n = 4096;
  const index_t bar = n / sparse::kDenseRowShare;
  // Disjoint row sets (even vs odd rows), both hypersparse.
  const Hyper even = random_run(n, 64, 0, 2, 40, 200, 1);
  const Hyper odd = random_run(n, 64, 1, 2, 40, 200, 2);
  CHECK(!even.dense() && !odd.dense());
  check_hyper_matches_reference({&even, &odd});
  check_hyper_matches_reference({&odd, &even});
  // Overlapping row sets: the same 50 rows, different columns/values.
  const Hyper a = random_run(n, 64, 100, 3, 50, 300, 3);
  const Hyper b = random_run(n, 64, 100, 3, 50, 300, 4);
  check_hyper_matches_reference({&a, &b, &even});
  // Two hypersparse runs whose union clears the bar: the merge comes
  // out dense.
  const Hyper lo = random_run(n, 64, 0, 1, bar - 8, 2000, 5);
  const Hyper hi = random_run(n, 64, 2000, 1, bar - 8, 2000, 6);
  CHECK(!lo.dense() && !hi.dense());
  check_hyper_matches_reference({&lo, &hi});
  CHECK(sparse::merge_add_k(std::vector<const Hyper*>{&lo, &hi}, plus).dense());
  // Hypersparse/dense mixes, on both sides of the bar and in both run
  // orders (the dense run just over it, the sparse one far under).
  const Hyper dense = random_run(n, 64, 0, 5, bar + 4, 4000, 7);
  CHECK(dense.dense());
  check_hyper_matches_reference({&dense, &a});
  check_hyper_matches_reference({&a, &dense, &odd});
  // Empty runs, hypersparse and dense, alone and mixed in.
  const Hyper empty = Hyper::empty(n, 64);
  const Hyper empty_small = Hyper::empty(16, 64);
  CHECK(!empty.dense() && empty_small.dense());
  check_hyper_matches_reference({&empty, &empty});
  check_hyper_matches_reference({&empty, &a, &empty});
  check_hyper_matches_reference({&dense, &empty});
  check_hyper_matches_reference({&empty_small, &empty_small});
  // A dense run merged away below the bar by drop_zero: every entry of
  // the mirror run cancels, leaving only the sparse run's rows.
  std::vector<double> neg(dense.vals().size());
  for (std::size_t i = 0; i < neg.size(); ++i) neg[i] = -dense.vals()[i];
  const Hyper mirror = Hyper::from_dense(n, 64, dense.row_ptr(), dense.cols(),
                                         std::move(neg));
  const double zero = 0.0;
  check_hyper_matches_reference({&dense, &mirror}, &zero);
  check_hyper_matches_reference({&dense, &odd, &mirror}, &zero);
  const auto cancelled =
      sparse::merge_add_k(std::vector<const Hyper*>{&dense, &odd, &mirror},
                          plus, nullptr, &zero);
  CHECK(!cancelled.dense());
  check_hyper_matches_reference({&a, &b}, &zero);
}

void test_fold_row() {
  // The single-row fold a snapshot reader runs: every row equals the
  // materialized merge's row, and a row no run stores emits nothing.
  const index_t n = 4096;
  const auto a =
      std::make_shared<const Hyper>(random_run(n, n, 7, 11, 60, 400, 8));
  const auto b =
      std::make_shared<const Hyper>(random_run(n, n, 7, 22, 30, 200, 9));
  const auto d = std::make_shared<const Hyper>(
      random_run(n, n, 0, 3, n / sparse::kDenseRowShare + 1, 3000, 10));
  const algebra::PlusTimes<double> p;
  for (const auto& runs :
       {std::vector<std::shared_ptr<const Hyper>>{a, b},
        std::vector<std::shared_ptr<const Hyper>>{a, d, b}}) {
    const stream::PinnedSnapshot<algebra::PlusTimes<double>> snap(n, p, 2,
                                                                  runs);
    const auto full = snap.materialize();
    auto scratch = snap.row_scratch();
    bool rows_ok = true;
    for (index_t r = 0; r < n; ++r) {
      std::vector<index_t> cs;
      std::vector<double> vs;
      snap.fold_row(r, scratch, [&](index_t c, const double& v) {
        cs.push_back(c);
        vs.push_back(v);
      });
      const auto want_c = full.row_cols(r);
      const auto want_v = full.row_vals(r);
      rows_ok = rows_ok &&
                std::equal(cs.begin(), cs.end(), want_c.begin(),
                           want_c.end()) &&
                std::equal(vs.begin(), vs.end(), want_v.begin(), want_v.end());
    }
    CHECK(rows_ok);
    // Row 8 lies outside every run's row pattern (7 + 11i, 7 + 22i,
    // 3i); so does the last row.
    for (const index_t absent : {index_t{8}, n - 1}) {
      int emitted = 0;
      snap.fold_row(absent, scratch,
                    [&](index_t, const double&) { ++emitted; });
      CHECK_EQ(emitted, 0);
    }
  }
}

void test_csr_round_trip() {
  // to_csr(from_csr(x)) reproduces x byte for byte, in either layout.
  std::vector<sparse::Csr<double>> xs;
  xs.push_back(random_csr(40, 40, 120, 51));
  xs.push_back(random_run(4096, 30, 5, 7, 20, 90, 52).to_csr());
  xs.push_back(
      sparse::Csr<double>(4096, 8, std::vector<index_t>(4097, 0), {}, {}));
  xs.push_back(sparse::Csr<double>(0, 3, {0}, {}, {}));
  xs.push_back(random_csr(1, 9, 5, 53));
  for (const auto& x : xs) {
    const Hyper h = Hyper::from_csr(x);
    CHECK(h.is_canonical());
    CHECK(csr_bitwise_equal(h.to_csr(), x));
    // Row lookup (direct or through the row-id hash) agrees on every
    // row, stored or not.
    bool rows_ok = true;
    for (index_t r = 0; r < x.nrows(); ++r) {
      const auto hc = h.row_cols(r);
      const auto hv = h.row_vals(r);
      const auto xc = x.row_cols(r);
      const auto xv = x.row_vals(r);
      rows_ok = rows_ok &&
                std::equal(hc.begin(), hc.end(), xc.begin(), xc.end()) &&
                std::equal(hv.begin(), hv.end(), xv.begin(), xv.end());
    }
    CHECK(rows_ok);
  }
  CHECK(!Hyper::from_csr(xs[1]).dense());
  CHECK(Hyper::from_csr(xs[0]).dense());
}


/// A run storing `vals[i]` at (rows[i], cols[i]); entries sharing a row
/// must come in increasing column order.
Hyper run_of(index_t n, const std::vector<index_t>& rows,
             const std::vector<index_t>& cols,
             const std::vector<double>& vals) {
  sparse::Coo<double> coo(n, n);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    coo.push(rows[i], cols[i], vals[i]);
  }
  return Hyper::from_csr(sparse::Csr<double>::from_coo(std::move(coo)));
}

void test_single_fold() {
  // ⊕ runs once per fold: Σ input nnz − (cells of the merge) times, with
  // or without zero-dropping (a dropped cell is folded, then skipped),
  // under every pool size.
  const index_t n = 4096;
  const Hyper a = random_run(n, 64, 0, 1, 300, 3000, 61);   // dense
  const Hyper b = random_run(n, 64, 5, 7, 90, 600, 62);     // hypersparse
  const Hyper c = random_run(n, 64, 5, 14, 40, 200, 63);
  std::vector<double> neg(c.vals().size());
  for (std::size_t i = 0; i < neg.size(); ++i) neg[i] = -c.vals()[i];
  const Hyper mirror = Hyper::from_rows(n, 64, c.row_ids(), c.row_ptr(),
                                        c.cols(), std::move(neg));
  const std::vector<const Hyper*> runs = {&a, &b, &c, &mirror};
  const std::vector<const Hyper*> sparse_runs = {&b, &c, &mirror};
  const double zero = 0.0;
  for (const auto* rs : {&runs, &sparse_runs}) {
    index_t in = 0;
    for (const Hyper* h : *rs) in += h->nnz();
    const index_t cells = sparse::merge_add_k(*rs, plus).nnz();
    for (const double* dz : {static_cast<const double*>(nullptr), &zero}) {
      std::atomic<index_t> calls{0};
      const auto counting = [&calls](const double& x, const double& y) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return x + y;
      };
      const auto serial = sparse::merge_add_k(*rs, counting, nullptr, dz);
      CHECK_EQ(calls.load(), in - cells);
      if (dz != nullptr) CHECK(serial.nnz() < cells);  // the mirror cancels
      for (const std::size_t threads : kPools) {
        util::ThreadPool pool(threads);
        calls = 0;
        (void)sparse::merge_add_k(*rs, counting, &pool, dz);
        CHECK_EQ(calls.load(), in - cells);
      }
    }
  }
}

void test_chunk_boundaries() {
  // Randomized k-way shapes (k up to 8) against the oracle under every
  // pool size: rows some runs store and others do not, runs with 0–3
  // stored rows (fewer rows than threads), and runs on both sides of
  // the density bar (n = 256: the bar is 8 rows), with and without
  // zero-dropping.
  const double zero = 0.0;
  util::Xoshiro256 rng(71);
  for (const index_t n : {index_t{1}, index_t{5}, index_t{256}, index_t{4096}}) {
    const index_t bar = std::max<index_t>(1, n / sparse::kDenseRowShare);
    for (int trial = 0; trial < 12; ++trial) {
      const auto k = static_cast<std::size_t>(1 + rng.next() % 8);
      std::vector<Hyper> owned;
      for (std::size_t i = 0; i < k; ++i) {
        const index_t choices[] = {0, 1, 2, 3, bar - 1, bar, bar + 1};
        const index_t want = std::min(n, choices[rng.next() % 7]);
        // Rows from a shared stride-3 pool (runs overlap) or all rows.
        const index_t stride = rng.next() % 2 == 0 ? 1 : 3;
        sparse::Coo<double> coo(n, 64);
        for (index_t j = 0; j < want; ++j) {
          const index_t r = (j * stride + static_cast<index_t>(rng.next() % 2)) % n;
          for (int e = 0; e < 3; ++e) {
            // Values in {-2, …, 2}: folds cancel to zero often.
            coo.push(r, static_cast<index_t>(rng.next() % 64),
                     static_cast<double>(static_cast<int>(rng.next() % 5) - 2));
          }
        }
        owned.push_back(
            Hyper::from_csr(sparse::Csr<double>::from_coo(std::move(coo))));
      }
      std::vector<const Hyper*> runs;
      for (const auto& h : owned) runs.push_back(&h);
      check_hyper_matches_reference(runs);
      check_hyper_matches_reference(runs, &zero);
    }
  }
  // Chunks that drop everything: the first 8 of 16 rows cancel, so with
  // 8 threads (16 pivot rows → 8 chunks of 2) four chunks write nothing.
  std::vector<index_t> rows;
  std::vector<index_t> cols;
  std::vector<double> vals;
  std::vector<double> negs;
  for (index_t r = 0; r < 16; ++r) {
    rows.push_back(r * 100);
    cols.push_back(r % 7);
    vals.push_back(static_cast<double>(r + 1));
    if (r < 8) negs.push_back(-static_cast<double>(r + 1));
  }
  const Hyper a = run_of(4096, rows, cols, vals);
  const Hyper b = run_of(4096, {rows.begin(), rows.begin() + 8},
                         {cols.begin(), cols.begin() + 8}, negs);
  check_hyper_matches_reference({&a, &b}, &zero);
  check_hyper_matches_reference({&b, &a}, &zero);
  util::ThreadPool pool(8);
  const auto half = sparse::merge_add_k(std::vector<const Hyper*>{&a, &b},
                                        plus, &pool, &zero);
  CHECK_EQ(half.nnz(), 8);
  CHECK_EQ(half.row_ids().front(), 800);
}

void test_fp_fold_order() {
  // One cell across three runs, FP values whose sum depends on the fold
  // order: (1e16 ⊕ 1) ⊕ −1e16 = 0 but (1e16 ⊕ −1e16) ⊕ 1 = 1. Other
  // rows around the cell put chunk boundaries next to it.
  const index_t n = 4096;
  const Hyper big = run_of(n, {3, 700, 701, 1500, 2900}, {1, 2, 2, 9, 4},
                           {5, 1e16, 6, 7, 8});
  const Hyper one = run_of(n, {700, 1500}, {2, 9}, {1, 1});
  const Hyper neg = run_of(n, {10, 700, 4000}, {1, 2, 3}, {2, -1e16, 3});
  const double zero = 0.0;
  for (const auto& runs : {std::vector<const Hyper*>{&big, &one, &neg},
                           std::vector<const Hyper*>{&big, &neg, &one},
                           std::vector<const Hyper*>{&neg, &one, &big}}) {
    check_hyper_matches_reference(runs);
    check_hyper_matches_reference(runs, &zero);
  }
  const auto cell = [](const std::vector<const Hyper*>& runs,
                       util::ThreadPool* pool) {
    return sparse::merge_add_k(runs, plus, pool).row_vals(700)[0];
  };
  CHECK_EQ(cell({&big, &one, &neg}, nullptr), 0.0);
  CHECK_EQ(cell({&big, &neg, &one}, nullptr), 1.0);
  for (const std::size_t threads : kPools) {
    util::ThreadPool pool(threads);
    CHECK_EQ(cell({&big, &one, &neg}, &pool), 0.0);
    CHECK_EQ(cell({&big, &neg, &one}, &pool), 1.0);
  }
}

}  // namespace

int main() {
  test_empty_delta();
  test_disjoint_delta();
  test_fully_overlapping_delta();
  test_kway_random();
  test_explicit_zero_entries();
  test_exception_from_chunk();
  test_shape_mismatch_rejected();
  test_zero_row_matrices();
  test_hyper_row_sets();
  test_fold_row();
  test_csr_round_trip();
  test_single_fold();
  test_chunk_boundaries();
  test_fp_fold_order();
  return TEST_MAIN_RESULT();
}

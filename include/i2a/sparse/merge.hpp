#pragma once
/// \file sparse/merge.hpp
/// \brief Parallel semiring ⊕-merge: fold k same-shape sparse runs into
///        one, entrywise, with the caller's ⊕ — the kernel behind
///        streaming adjacency maintenance (stream/adjacency_builder.hpp).
///
/// The GraphBLAS framing (Kepner et al., 1606.05790) treats a sparse
/// update as ⊕-accumulation into an existing array: C = A ⊕ ΔA. When ⊕
/// is the fold of a conforming operator pair (Theorem II.1's hypothesis)
/// the merged array is exactly the adjacency array of the concatenated
/// edge lists, because the theorem's fold over parallel edges is
/// associative — folding per batch and then folding the folds is the
/// same as folding everything at once. The merge itself never needs ⊗:
/// each input row is already a folded adjacency row, so only ⊕ appears.
///
/// One engine, over `HyperCsr` runs (sparse/hypercsr.hpp), so its cost
/// tracks the runs' stored rows, not the row space:
///
///   0. **row space** — the sorted union of the runs' non-empty rows
///      (or every row, when some run is dense: its stored rows are then
///      already a fixed share of them);
///   1. **count** — chunks of that row list walk each run with a
///      monotone slot cursor and the k sorted column streams of a row
///      with a cursor frontier (chunk-id-indexed scratch reused across
///      both passes via `ThreadPool::parallel_for_chunks`), recording
///      each output row's merged size;
///   2. **stitch** — one serial prefix sum sizes the output;
///   3. **scatter + fold** — the same chunks re-walk the cursors and
///      write every merged entry straight into its final slot, folding
///      equal columns with ⊕ in *run order* (runs[0] first). Run order
///      is how callers encode batch age, which is what keeps a
///      non-commutative or FP ⊕ bitwise-reproducible.
///
/// The single-row fold a snapshot reader runs (`merge_row_k`) is the
/// same frontier, fed by a per-run row lookup; the `Csr` overloads
/// convert in, merge here and convert out. Every row lands at a
/// prefix-sum-determined offset and each row's merge is independent and
/// deterministic, so the output is byte-identical across pool sizes
/// (serial included). Exceptions thrown by ⊕ in a worker chunk
/// propagate to the caller (the pool captures and rethrows the first
/// one); the partially built output is discarded.
///
/// Definition I.5 (stored zeros are absent) is an opt-in knob: passing
/// `drop_zero` omits output entries whose *folded* value equals the zero
/// element, so an explicit stored zero never survives a merge. The
/// default keeps all stored entries, matching what the SpGEMM engine
/// produces — for conforming pairs (zero-sum-free carrier) a fold of
/// nonzeros can never manufacture a zero, so the adjacency-maintenance
/// path needs no dropping to stay byte-identical to a full rebuild.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/hypercsr.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

namespace detail {

/// Per-chunk working set of the k-way merge, reused across every row of
/// the chunk and across the count and scatter passes (which index it by
/// the same chunk id): the column-stream frontier of the current row,
/// plus each run's monotone slot cursor.
template <typename T>
struct MergeScratch {
  std::vector<const index_t*> cols;  ///< run r's row cursor (cols)
  std::vector<const T*> vals;        ///< run r's row cursor (vals)
  std::vector<index_t> len;          ///< entries left in run r's row
  std::vector<index_t> slot;         ///< run r's next stored-row slot
};

/// The fold: walk the k row streams loaded into `s` and call
/// `emit(col, folded_value)` once per merged column, strictly
/// increasing. Folding visits streams in index order — runs[0] ⊕
/// runs[1] ⊕ … — which is the age order callers rely on. `need_vals`
/// lets the count pass skip value reads entirely when no zero-dropping
/// is requested.
template <typename T, typename Add, typename Emit>
void fold_streams(std::size_t k, MergeScratch<T>& s, index_t live,
                  const Add& add, bool need_vals, const Emit& emit) {
  while (live > 0) {
    // Frontier minimum: the next merged column.
    index_t mc = -1;
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && (mc < 0 || *s.cols[i] < mc)) mc = *s.cols[i];
    }
    // Fold every run holding `mc`, oldest (lowest index) first.
    bool open = false;
    T acc{};
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && *s.cols[i] == mc) {
        if (need_vals) {
          acc = open ? add(acc, *s.vals[i]) : *s.vals[i];
        }
        open = true;
        ++s.cols[i];
        ++s.vals[i];
        --s.len[i];
        --live;
      }
    }
    emit(mc, acc);
  }
}

/// Point every run's slot cursor at its first stored row ≥ r.
template <typename T>
void seek_rows(const std::vector<const HyperCsr<T>*>& runs, index_t r,
               MergeScratch<T>& s) {
  const std::size_t k = runs.size();
  s.cols.resize(k);
  s.vals.resize(k);
  s.len.resize(k);
  s.slot.resize(k);
  for (std::size_t i = 0; i < k; ++i) s.slot[i] = runs[i]->lower_slot(r);
}

/// Load slot `sl` of run i as stream i of the frontier; returns its
/// length.
template <typename T>
index_t load_slot(MergeScratch<T>& s, std::size_t i, const HyperCsr<T>& run,
                  index_t sl) {
  const index_t b = run.row_ptr()[static_cast<std::size_t>(sl)];
  s.cols[i] = run.cols().data() + b;
  s.vals[i] = run.vals().data() + b;
  s.len[i] = run.row_ptr()[static_cast<std::size_t>(sl) + 1] - b;
  return s.len[i];
}

/// Load row `r` of every run as the frontier's streams, advancing each
/// slot cursor (rows are visited in increasing order after `seek_rows`).
/// Returns the entries loaded.
template <typename T>
index_t load_row(const std::vector<const HyperCsr<T>*>& runs, index_t r,
                 MergeScratch<T>& s) {
  index_t live = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const HyperCsr<T>& run = *runs[i];
    index_t& sl = s.slot[i];
    s.len[i] = 0;
    if (run.dense()) {
      sl = r;
    } else {
      const auto& ids = run.row_ids();
      const auto end = static_cast<index_t>(ids.size());
      while (sl < end && ids[static_cast<std::size_t>(sl)] < r) ++sl;
      if (sl == end || ids[static_cast<std::size_t>(sl)] != r) continue;
    }
    live += load_slot(s, i, run, sl);
  }
  return live;
}

/// Merge row `r` of all runs — the single-row entry point snapshot
/// readers use: each run is probed by `slot_of(r)` (O(1): direct when
/// dense, the row-id hash when hypersparse), then the shared fold. A
/// row no run stores emits nothing.
template <typename T, typename Add, typename Emit>
void merge_row_k(const std::vector<const HyperCsr<T>*>& runs, index_t r,
                 MergeScratch<T>& s, const Add& add, bool need_vals,
                 const Emit& emit) {
  const std::size_t k = runs.size();
  s.cols.resize(k);
  s.vals.resize(k);
  s.len.resize(k);
  index_t live = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const index_t sl = runs[i]->slot_of(r);
    s.len[i] = 0;
    if (sl >= 0) live += load_slot(s, i, *runs[i], sl);
  }
  fold_streams(k, s, live, add, need_vals, emit);
}

}  // namespace detail

/// C = runs[0] ⊕ runs[1] ⊕ … ⊕ runs[k-1], entrywise, all runs the same
/// shape. `add(a, b)` is ⊕; equal columns fold in run order, so callers
/// encoding batch age as run order get the same fold a single-shot build
/// would perform. `drop_zero`, when non-null, omits output entries whose
/// folded value equals `*drop_zero` (Definition I.5). Work is
/// O(Σ stored rows · k + Σ nnz) — never Θ(nrows) unless some run is
/// dense. Output is byte-identical across pool sizes.
template <typename T, typename Add>
HyperCsr<T> merge_add_k(const std::vector<const HyperCsr<T>*>& runs,
                        const Add& add, util::ThreadPool* pool = nullptr,
                        const T* drop_zero = nullptr) {
  if (runs.empty()) {
    throw std::invalid_argument("merge_add_k: no input runs");
  }
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  bool any_dense = false;
  for (const auto* m : runs) {
    if (m->nrows() != nrows || m->ncols() != ncols) {
      throw std::invalid_argument("merge_add_k: run shape mismatch");
    }
    I2A_EXPECTS(m->is_canonical(), "merge_add_k: input run not canonical");
    any_dense = any_dense || m->dense();
  }
  const bool dropping = drop_zero != nullptr;
  if (runs.size() == 1 && !dropping) return *runs[0];  // fold of one

  // Injection site: the row-space and count-pass scratch allocations. A
  // fire here leaves every input run untouched — the merge has produced
  // nothing yet (DESIGN.md §10).
  I2A_FAILPOINT("merge.count.scratch");
  // Step 0: the candidate rows, increasing. With a dense run among the
  // inputs that is every row (implicit); otherwise the union of the
  // runs' row-id lists.
  std::vector<index_t> union_rows;
  if (!any_dense) {
    std::vector<index_t> tmp;
    for (const auto* m : runs) {
      tmp.clear();
      std::set_union(union_rows.begin(), union_rows.end(),
                     m->row_ids().begin(), m->row_ids().end(),
                     std::back_inserter(tmp));
      union_rows.swap(tmp);
    }
  }
  const index_t ncand =
      any_dense ? nrows : static_cast<index_t>(union_rows.size());
  const auto row_of = [&](index_t u) {
    return any_dense ? u : union_rows[static_cast<std::size_t>(u)];
  };

  const bool parallel = pool != nullptr && pool->size() > 1 && ncand > 0;
  const index_t nchunks =
      parallel ? pool->num_chunks(ncand) : (ncand > 0 ? 1 : 0);
  std::vector<detail::MergeScratch<T>> scratch(
      static_cast<std::size_t>(nchunks));

  // Pass 1 (count): per-candidate merged sizes, written into off[u + 1]
  // (candidates are disjoint across chunks, so no histograms are needed
  // — a row merge has exactly one producer). The count only touches
  // values when zero-dropping makes sizes value-dependent — that path
  // deliberately folds twice (once to size, once to write) in exchange
  // for exact sizing with no compaction copy; the default no-drop path,
  // the adjacency-maintenance hot path, folds exactly once.
  std::vector<index_t> off(static_cast<std::size_t>(ncand) + 1, 0);
  detail::run_chunked(
      pool, parallel, ncand, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        detail::seek_rows(runs, row_of(lo), s);
        for (index_t u = lo; u < hi; ++u) {
          index_t cnt = 0;
          detail::fold_streams(runs.size(), s,
                               detail::load_row(runs, row_of(u), s), add,
                               dropping, [&](index_t, const T& v) {
                                 if (!dropping || !(v == *drop_zero)) ++cnt;
                               });
          off[static_cast<std::size_t>(u) + 1] = cnt;
        }
      });

  // Stitch: one serial prefix sum sizes the output exactly; rows left
  // empty (all entries dropped, or an empty row of a dense run) are
  // counted to pick the output layout.
  index_t nonempty = 0;
  for (index_t u = 0; u < ncand; ++u) {
    nonempty += off[static_cast<std::size_t>(u) + 1] > 0;
    off[static_cast<std::size_t>(u) + 1] += off[static_cast<std::size_t>(u)];
  }
  // Injection site: the scatter pass's output allocation — the largest
  // single allocation a compaction makes, so the canonical place an
  // out-of-memory failure lands mid-merge. A fire discards only the
  // partially built output; the input runs stay live and pinned.
  I2A_FAILPOINT("merge.scatter.alloc");
  std::vector<index_t> cols(static_cast<std::size_t>(off.back()));
  std::vector<T> vals(static_cast<std::size_t>(off.back()));

  // Pass 2 (scatter + fold): same chunk decomposition, same scratch,
  // entries written straight into their final slots.
  detail::run_chunked(
      pool, parallel, ncand, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        detail::seek_rows(runs, row_of(lo), s);
        for (index_t u = lo; u < hi; ++u) {
          auto w = static_cast<std::size_t>(off[static_cast<std::size_t>(u)]);
          detail::fold_streams(runs.size(), s,
                               detail::load_row(runs, row_of(u), s), add,
                               true, [&](index_t c, const T& v) {
                                 if (dropping && v == *drop_zero) return;
                                 cols[w] = c;
                                 vals[w] = v;
                                 ++w;
                               });
          I2A_ASSERT(w == static_cast<std::size_t>(
                              off[static_cast<std::size_t>(u) + 1]),
                     "merge_add_k: scatter count disagrees with count pass");
        }
      });

  // Lay the output out: the candidates that kept entries, as row ids
  // over `off` (HyperCsr picks dense or hypersparse from their count).
  HyperCsr<T> out;
  if (any_dense && HyperCsr<T>::dense_layout(nrows, nonempty)) {
    out = HyperCsr<T>::from_dense(nrows, ncols, std::move(off),
                                  std::move(cols), std::move(vals));
  } else {
    std::vector<index_t> row_ids;
    std::vector<index_t> row_ptr;
    row_ids.reserve(static_cast<std::size_t>(nonempty));
    row_ptr.reserve(static_cast<std::size_t>(nonempty) + 1);
    for (index_t u = 0; u < ncand; ++u) {
      if (off[static_cast<std::size_t>(u) + 1] ==
          off[static_cast<std::size_t>(u)]) {
        continue;
      }
      row_ids.push_back(row_of(u));
      row_ptr.push_back(off[static_cast<std::size_t>(u)]);
    }
    row_ptr.push_back(off.back());
    out = HyperCsr<T>::from_rows(nrows, ncols, std::move(row_ids),
                                 std::move(row_ptr), std::move(cols),
                                 std::move(vals));
  }
  I2A_ENSURES(out.is_canonical(), "merge_add_k: non-canonical merge");
  return out;
}

/// `Csr` form of the merge: converts each run, merges on the one engine
/// above, converts back. O(nrows + nnz) per run for the conversions —
/// for callers holding classic arrays, not for the streaming hot path.
template <typename T, typename Add>
Csr<T> merge_add_k(const std::vector<const Csr<T>*>& runs, const Add& add,
                   util::ThreadPool* pool = nullptr,
                   const T* drop_zero = nullptr) {
  std::vector<HyperCsr<T>> owned;
  owned.reserve(runs.size());
  for (const auto* m : runs) {
    I2A_EXPECTS(m->is_canonical(), "merge_add_k: input run not canonical");
    owned.push_back(HyperCsr<T>::from_csr(*m));
  }
  std::vector<const HyperCsr<T>*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& h : owned) ptrs.push_back(&h);
  return merge_add_k(ptrs, add, pool, drop_zero).to_csr();
}

/// Two-run convenience: C = a ⊕ b (a folds first — a is the *older*
/// array when maintaining an adjacency).
template <typename T, typename Add>
Csr<T> merge_add(const Csr<T>& a, const Csr<T>& b, const Add& add,
                 util::ThreadPool* pool = nullptr,
                 const T* drop_zero = nullptr) {
  return merge_add_k(std::vector<const Csr<T>*>{&a, &b}, add, pool,
                     drop_zero);
}

/// Operator-pair convenience: ⊕ is `p.add`, the same fold Theorem II.1's
/// construction applies to parallel edges. Only the ⊕ contract is
/// required — a merge never touches ⊗ — so the constraint is
/// `CommutativeMonoidAdd`, not the full `Semiring`.
template <typename P>
  requires algebra::CommutativeMonoidAdd<P>
Csr<typename P::value_type> merge(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b, util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  return merge_add(
      a, b, [&p](const T& x, const T& y) { return p.add(x, y); }, pool);
}

}  // namespace i2a::sparse

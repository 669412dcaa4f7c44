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
/// tracks the runs' stored rows, not the row space. It is one pass that
/// folds every merged entry exactly once:
///
///   * **walk** — each run keeps a slot cursor over its stored rows (its
///     `row_ids` when hypersparse, its non-empty slots when dense). The
///     least row under any cursor is the next output row; the frontier
///     of its runs' column streams folds equal columns with ⊕ in *run
///     order* (runs[0] first) — how callers encode batch age, which
///     keeps a non-commutative or FP ⊕ bitwise-reproducible. Each merged
///     entry is written once; `drop_zero` is a skip at that write.
///   * **sizing** — the output is allocated up front at Σ input nnz and
///     Σ input stored rows (overflow-checked upper bounds), so nothing
///     is counted first; the slack is what the folds and drops remove.
///   * **chunks** — with a pool, chunks are row ranges cut at the stored
///     rows of the run holding the most. A chunk finds its start in each
///     run with `lower_slot` and writes at its input offset (the input
///     entries and rows below it), which no earlier chunk's output can
///     reach; one serial left-compaction closes the gaps and rebases the
///     row pointers. A serial merge is one chunk at offset 0: no move.
///
/// Why no exact count pass: it must fold every entry once to size it and
/// again to write it, 129–169 ns per merged entry on the n = 2^20 ingest
/// ladder against 46–56 ns for the one pass (DESIGN.md §7).
///
/// The single-row fold a snapshot reader runs (`merge_row_k`) is the
/// same frontier, fed by a per-run row lookup; the `Csr` overloads
/// convert in, merge here and convert out. Each row's fold is independent
/// and rows land in order after the compaction, so the output is
/// byte-identical across pool sizes (serial included). Exceptions thrown
/// by ⊕ in a worker chunk propagate to the caller (the pool captures and
/// rethrows the first one); the partially built output is discarded.
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

/// The column-stream frontier of one row merge, reused across rows:
/// stream i is run i's entries of the row being folded.
template <typename T>
struct MergeScratch {
  std::vector<const index_t*> cols;  ///< run i's row cursor (cols)
  std::vector<const T*> vals;        ///< run i's row cursor (vals)
  std::vector<index_t> len;          ///< entries left in run i's row
};

/// The fold: walk the k row streams loaded into `s` and call
/// `emit(col, folded_value)` once per merged column, strictly
/// increasing. Folding visits streams in index order — runs[0] ⊕
/// runs[1] ⊕ … — which is the age order callers rely on.
template <typename T, typename Add, typename Emit>
void fold_streams(std::size_t k, MergeScratch<T>& s, index_t live,
                  const Add& add, const Emit& emit) {
  // A row held by one run alone folds nothing: emit it as stored.
  std::size_t one = 0;
  while (one < k && s.len[one] == 0) ++one;
  if (one < k && s.len[one] == live) {
    for (index_t j = 0; j < live; ++j) emit(s.cols[one][j], s.vals[one][j]);
    return;
  }
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
        acc = open ? add(acc, *s.vals[i]) : *s.vals[i];
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

/// Load slot `sl` of run i as frontier stream i; returns its length.
template <typename T>
index_t load_slot(MergeScratch<T>& s, std::size_t i, const HyperCsr<T>& run,
                  index_t sl) {
  const index_t b = run.row_ptr()[static_cast<std::size_t>(sl)];
  s.cols[i] = run.cols().data() + b;
  s.vals[i] = run.vals().data() + b;
  s.len[i] = run.row_ptr()[static_cast<std::size_t>(sl) + 1] - b;
  return s.len[i];
}

/// Merge row `r` of all runs — the single-row entry point snapshot
/// readers use: each run is probed by `slot_of(r)` (O(1): direct when
/// dense, the row-id hash when hypersparse), then the shared fold. A
/// row no run stores emits nothing.
template <typename T, typename Add, typename Emit>
void merge_row_k(const std::vector<const HyperCsr<T>*>& runs, index_t r,
                 MergeScratch<T>& s, const Add& add, const Emit& emit) {
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
  fold_streams(k, s, live, add, emit);
}

/// The row stored in slot `sl` of `run`.
template <typename T>
index_t slot_row(const HyperCsr<T>& run, index_t sl) {
  return run.dense() ? sl : run.row_ids()[static_cast<std::size_t>(sl)];
}

/// A bound on the non-empty rows below slot `sl` whose differences bound
/// the non-empty rows between slots: the slot itself when hypersparse,
/// the lesser of rows and entries below it when dense.
template <typename T>
std::size_t rows_below(const HyperCsr<T>& run, index_t sl) {
  const index_t ents = run.row_ptr()[static_cast<std::size_t>(sl)];
  return static_cast<std::size_t>(run.dense() ? std::min(sl, ents) : sl);
}

/// Where one chunk wrote: `nnz` entries from offset `ent` of the output
/// entries, `rows` rows from offset `row` of its row ids and pointers.
struct MergeChunk {
  std::size_t ent = 0, nnz = 0, row = 0, rows = 0;
};

/// Merge rows [lo, hi) of every run into the output arrays at the
/// chunk's input offsets (the input entries and `rows_below` rows under
/// lo); row pointers are absolute positions in `cols`.
template <typename T, typename Add>
MergeChunk merge_rows(const std::vector<const HyperCsr<T>*>& runs,
                      index_t lo, index_t hi, const Add& add,
                      const T* drop_zero, std::vector<index_t>& row_ids,
                      std::vector<index_t>& row_ptr,
                      std::vector<index_t>& cols, std::vector<T>& vals) {
  const std::size_t k = runs.size();
  MergeScratch<T> s{std::vector<const index_t*>(k), std::vector<const T*>(k),
                    std::vector<index_t>(k)};
  std::vector<index_t> slot(k);
  std::vector<index_t> end(k);
  std::size_t ent = 0;
  std::size_t row = 0;
  for (std::size_t i = 0; i < k; ++i) {
    slot[i] = runs[i]->lower_slot(lo);
    end[i] = runs[i]->lower_slot(hi);
    ent += static_cast<std::size_t>(
        runs[i]->row_ptr()[static_cast<std::size_t>(slot[i])]);
    row += rows_below(*runs[i], slot[i]);
  }
  std::size_t w = ent;
  std::size_t nr = row;
  for (;;) {
    // The next output row: the least under any cursor (dense: non-empty).
    index_t r = hi;
    for (std::size_t i = 0; i < k; ++i) {
      const HyperCsr<T>& run = *runs[i];
      const auto& ptr = run.row_ptr();
      while (run.dense() && slot[i] < end[i] &&
             ptr[static_cast<std::size_t>(slot[i])] ==
                 ptr[static_cast<std::size_t>(slot[i]) + 1]) {
        ++slot[i];
      }
      if (slot[i] < end[i]) r = std::min(r, slot_row(run, slot[i]));
    }
    if (r == hi) break;
    index_t live = 0;
    for (std::size_t i = 0; i < k; ++i) {
      s.len[i] = 0;
      if (slot[i] < end[i] && slot_row(*runs[i], slot[i]) == r) {
        live += load_slot(s, i, *runs[i], slot[i]++);
      }
    }
    const std::size_t start = w;
    fold_streams(k, s, live, add, [&](index_t col, const T& v) {
      if (drop_zero != nullptr && v == *drop_zero) return;
      cols[w] = col;
      vals[w] = v;
      ++w;
    });
    if (w > start) {
      row_ids[nr] = r;
      row_ptr[nr++] = static_cast<index_t>(start);
    }
  }
  return {ent, w - ent, row, nr - row};
}

}  // namespace detail

/// C = runs[0] ⊕ runs[1] ⊕ … ⊕ runs[k-1], entrywise, all runs the same
/// shape. `add(a, b)` is ⊕; equal columns fold in run order, so callers
/// encoding batch age as run order get the same fold a single-shot build
/// would perform, and ⊕ runs once per fold. `drop_zero`, when non-null,
/// omits output entries whose folded value equals `*drop_zero`
/// (Definition I.5). Work is O(Σ stored rows · k + Σ nnz) — never
/// Θ(nrows) unless some run is dense. Output is byte-identical across
/// pool sizes.
template <typename T, typename Add>
HyperCsr<T> merge_add_k(const std::vector<const HyperCsr<T>*>& runs,
                        const Add& add, util::ThreadPool* pool = nullptr,
                        const T* drop_zero = nullptr) {
  if (runs.empty()) {
    throw std::invalid_argument("merge_add_k: no input runs");
  }
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  for (const auto* m : runs) {
    if (m->nrows() != nrows || m->ncols() != ncols) {
      throw std::invalid_argument("merge_add_k: run shape mismatch");
    }
    I2A_EXPECTS(m->is_canonical(), "merge_add_k: input run not canonical");
  }
  if (runs.size() == 1 && drop_zero == nullptr) return *runs[0];

  // Injection site: the chunk bookkeeping. A fire here leaves every input
  // run untouched — the merge has produced nothing yet (DESIGN.md §10).
  I2A_FAILPOINT("merge.scratch");
  // Upper bounds on the output, and the run with the most slots, whose
  // stored rows cut the chunks.
  index_t nnz_bound = 0;
  index_t rows_bound = 0;
  const HyperCsr<T>* pivot = runs[0];
  for (const auto* m : runs) {
    const index_t nslots = m->lower_slot(nrows);  // the slot count
    nnz_bound = checked_add(nnz_bound, m->nnz());
    rows_bound = checked_add(
        rows_bound, static_cast<index_t>(detail::rows_below(*m, nslots)));
    if (nslots > pivot->lower_slot(nrows)) pivot = m;
  }
  const index_t units = pivot->lower_slot(nrows);
  const bool parallel = pool != nullptr && pool->size() > 1 && units > 1;
  std::vector<detail::MergeChunk> chunks(
      static_cast<std::size_t>(parallel ? pool->num_chunks(units) : 1));

  // Injection site: the output allocation, the largest a compaction
  // makes — where an out-of-memory failure lands mid-merge. A fire
  // discards only the partial output; the input runs stay live.
  I2A_FAILPOINT("merge.output.alloc");
  std::vector<index_t> row_ids(static_cast<std::size_t>(rows_bound));
  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows_bound) + 1);
  std::vector<index_t> cols(static_cast<std::size_t>(nnz_bound));
  std::vector<T> vals(static_cast<std::size_t>(nnz_bound));

  // Pivot slots [lo, hi) are the rows from the pivot's row at slot lo
  // (row 0 for the first chunk) up to its row at slot hi (nrows last).
  const auto row_at = [&](index_t u) {
    return u == units ? nrows : detail::slot_row(*pivot, u);
  };
  detail::run_chunked(
      pool, parallel, units, [&](index_t chunk, index_t lo, index_t hi) {
        chunks[static_cast<std::size_t>(chunk)] =
            detail::merge_rows(runs, lo == 0 ? 0 : row_at(lo), row_at(hi),
                               add, drop_zero, row_ids, row_ptr, cols, vals);
      });

  // Close the gaps between chunks, left to right (chunk 0 never moves).
  std::size_t w = 0;
  std::size_t nr = 0;
  for (const auto& c : chunks) {
    if (c.ent != w || c.row != nr) {
      const auto shift = [](auto& v, std::size_t from, std::size_t n,
                            std::size_t to) {
        std::copy(v.begin() + from, v.begin() + from + n, v.begin() + to);
      };
      shift(cols, c.ent, c.nnz, w);
      shift(vals, c.ent, c.nnz, w);
      shift(row_ids, c.row, c.rows, nr);
      for (std::size_t j = 0; j < c.rows; ++j) {
        row_ptr[nr + j] = row_ptr[c.row + j] - static_cast<index_t>(c.ent - w);
      }
    }
    w += c.nnz;
    nr += c.rows;
  }
  cols.resize(w);
  vals.resize(w);
  row_ids.resize(nr);
  row_ptr.resize(nr + 1);
  row_ptr[nr] = static_cast<index_t>(w);
  HyperCsr<T> out = HyperCsr<T>::from_rows(nrows, ncols, std::move(row_ids),
                                           std::move(row_ptr), std::move(cols),
                                           std::move(vals));
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

#pragma once
/// \file sparse/spgemm.hpp
/// \brief Two-pass sparse general matrix-matrix multiply over an
///        arbitrary operator pair ⊕.⊗: a symbolic pass sizes every output
///        row, a prefix sum stitches the final CSR arrays once, and a
///        numeric pass writes each row directly into its final slot.
///
/// All kernels implement the *sparse shortcut* semantics: only
/// stored⊗stored terms enter the ⊕ fold. By Theorem II.1 this equals the
/// full fold whenever the pair conforms (zero is an annihilator, the
/// carrier is zero-sum-free and has no zero divisors) — the seven paper
/// pairs all qualify.
///
/// Engine shape (the top ROADMAP perf item, now retired). The symbolic
/// strategy is per algorithm — exact two-pass where counting is cheap
/// relative to the numeric kernel, a fused chunk-slab pass where an
/// exact count would repeat the whole kernel:
///
///   kHash / kAuto — exact two-pass. Symbolic: epoch-stamped
///               open-addressing distinct count per row (no O(ncols)
///               arrays); kAuto also records flops and picks a kernel
///               per row from the (flops, nnz) estimates. One prefix sum
///               sizes the final arrays; the numeric pass writes each
///               row directly into its final slot.
///   kGustavson / kHeap — fused chunk-slab pass: the dense-accumulator
///               scatter (resp. the k-way merge) *is* the symbolic
///               count, so each chunk computes its rows once into a
///               contiguous slab (reserved to the chunk's capped flops
///               bound) and the prefix-sum stitch copies each slab into
///               place in one block — or moves it out copy-free when
///               the run is serial.
///
/// In every path, scratch (dense accumulator, hash table, merge heap,
/// sort buffer, slabs) is chunk-local and reused across rows: zero
/// per-row heap allocations in steady state, and no vector-of-vectors
/// row staging anywhere.
///
/// Parallel runs use ThreadPool::parallel_for_chunks; because every row
/// lands at a prefix-sum-determined offset and each row's computation is
/// independent and deterministic, the output is byte-identical across
/// pool sizes (including serial).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

enum class SpGemmAlgo {
  kGustavson,  ///< dense accumulator + touched-column list (SPA)
  kHash,       ///< open-addressing hash accumulator per row
  kHeap,       ///< k-way merge of B rows via a binary heap
  kAuto,       ///< per-row choice from the symbolic pass's flop/nnz stats
};

namespace detail {

/// Uniform A-operand access for the engine: `Csr` rows or a `CscView`
/// (rows of Aᵀ without materializing the transpose).
template <typename T>
struct CsrRowsView {
  const Csr<T>& m;
  index_t nrows() const { return m.nrows(); }
  std::span<const index_t> row_cols(index_t i) const { return m.row_cols(i); }
  T row_val(index_t i, std::size_t k) const {
    return m.row_vals(i)[k];
  }
  /// Hoist the row's values — one span construction per row instead of
  /// one per entry in the kernels' hot loops. CSR values are already
  /// contiguous, so this is a direct span; `scratch` is only for views
  /// that must materialize (CscView).
  std::span<const T> gather_row_vals(index_t i,
                                     std::vector<T>& scratch) const {
    (void)scratch;
    return m.row_vals(i);
  }
};

/// A `CscView`'s slots as the engine's rows: every column in the dense
/// layout, only the non-empty ones in the hypersparse layout, so the
/// product walks the stored columns and nothing else. `spgemm_at_b`
/// places the product's rows back at their column ids.
template <typename T>
struct CscSlotsView {
  const CscView<T>& v;
  index_t nrows() const { return v.num_slots(); }
  std::span<const index_t> row_cols(index_t s) const { return v.slot_cols(s); }
  T row_val(index_t s, std::size_t k) const { return v.slot_val(s, k); }
  std::span<const T> gather_row_vals(index_t s,
                                     std::vector<T>& scratch) const {
    return v.gather_slot_vals(s, scratch);
  }
};

/// Intermediate-product count of output row `i`: Σ_k |B(k,:)| over the
/// stored k of A(i,:). Upper-bounds the row nnz; exact when no column
/// collides.
template <typename AV, typename T>
index_t row_flops(const AV& a, const Csr<T>& b, index_t i) {
  index_t f = 0;
  for (const index_t k : a.row_cols(i)) f += b.row_nnz(k);
  return f;
}

/// Open-addressing accumulator with epoch-stamped slots. The table is
/// chunk-local: it grows geometrically to the largest row seen in the
/// chunk and is reset per row in O(1) by bumping the epoch, so steady
/// state performs no allocation at all. Capacity keeps load factor
/// <= 1/2 given the caller's distinct-key upper bound, so probing always
/// terminates.
template <typename T>
class HashAcc {
 public:
  void begin_row(index_t distinct_upper) {
    std::size_t want = 16;
    while (want < 2 * static_cast<std::size_t>(distinct_upper)) want <<= 1;
    if (want > keys_.size()) {
      keys_.assign(want, 0);
      epoch_of_.assign(want, 0);
      vals_.resize(want);
      epoch_ = 0;
      shift_ = 64;
      for (std::size_t c = want; c > 1; c >>= 1) --shift_;
    }
    ++epoch_;
    used_.clear();
  }

  /// Insert-or-find `j`; `fresh` reports whether the key is new this row.
  std::size_t upsert(index_t j, bool& fresh) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t h =
        static_cast<std::size_t>(
            (static_cast<std::uint64_t>(j) * 0x9e3779b97f4a7c15ULL) >>
            shift_) &
        mask;
    for (;;) {
      if (epoch_of_[h] != epoch_) {
        epoch_of_[h] = epoch_;
        keys_[h] = j;
        used_.push_back(h);
        fresh = true;
        return h;
      }
      if (keys_[h] == j) {
        fresh = false;
        return h;
      }
      h = (h + 1) & mask;
    }
  }

  T& val(std::size_t slot) { return vals_[slot]; }
  index_t key(std::size_t slot) const { return keys_[slot]; }
  index_t count() const { return static_cast<index_t>(used_.size()); }
  std::span<const std::size_t> used() const {
    return std::span<const std::size_t>(used_.data(), used_.size());
  }

 private:
  std::vector<index_t> keys_;
  std::vector<std::uint64_t> epoch_of_;
  std::vector<T> vals_;
  std::vector<std::size_t> used_;  // slots live in the current epoch
  std::uint64_t epoch_ = 0;
  int shift_ = 64;  // 64 - log2(capacity): multiply-shift hash start
};

/// One stream of the k-way merge: `col` is the head column, `ka` the
/// A-entry the stream belongs to, `pos` the cursor within the B row.
struct HeapCursor {
  index_t col;
  index_t ka;
  index_t pos;
};

/// Heap order for the merge cursors: column first, then stream index.
/// The tie-break makes equal columns pop in stream order — for the
/// incidence product, edge order — so the heap kernel folds parallel
/// edges in the same order as the Gustavson and hash kernels and a
/// non-associative (FP) ⊕ gives the same bytes on every kernel. Keys
/// are unique (one live cursor per stream), so the pop order is total.
inline bool cursor_before(const HeapCursor& x, const HeapCursor& y) {
  return x.col != y.col ? x.col < y.col : x.ka < y.ka;
}

/// Min-heap sift-down for the merge cursors. The merge uses replace-top
/// (mutate the root, sift once) instead of pop+push, halving the sift
/// work per stream advance.
inline void cursor_sift_down(std::vector<HeapCursor>& h, std::size_t i) {
  const std::size_t n = h.size();
  const HeapCursor x = h[i];
  for (;;) {
    std::size_t kid = 2 * i + 1;
    if (kid >= n) break;
    if (kid + 1 < n && cursor_before(h[kid + 1], h[kid])) ++kid;
    if (!cursor_before(h[kid], x)) break;
    h[i] = h[kid];
    i = kid;
  }
  h[i] = x;
}

inline void cursor_heapify(std::vector<HeapCursor>& h) {
  for (std::size_t i = h.size() / 2; i-- > 0;) cursor_sift_down(h, i);
}

/// All chunk-local working memory, allocated lazily per algorithm and
/// reused across every row of the chunk — and across the symbolic and
/// numeric passes, which index the same scratch by chunk id.
template <typename T>
struct ChunkScratch {
  // Gustavson: dense accumulator + generation stamps + touched list.
  std::vector<T> acc;
  std::vector<index_t> stamp;
  std::vector<index_t> touched;
  index_t generation = 0;
  // Hash: accumulator table + (col, val) sort buffer for ordered emit.
  HashAcc<T> hash;
  std::vector<std::pair<index_t, T>> emit;
  // Heap: merge cursors + per-stream hoists (B-row pointers and the A
  // value), so the pop loop never reconstructs spans.
  std::vector<HeapCursor> heap;
  std::vector<const index_t*> stream_bcols;
  std::vector<const T*> stream_bvals;
  std::vector<index_t> stream_blen;
  std::vector<T> stream_aval;

  void ensure_dense(index_t ncols) {
    if (stamp.size() < static_cast<std::size_t>(ncols)) {
      acc.resize(static_cast<std::size_t>(ncols));
      stamp.assign(static_cast<std::size_t>(ncols), index_t{-1});
      generation = 0;
    }
  }
};

/// Exact row nnz via hash distinct-count (hash / auto symbolic): no
/// O(ncols) dense array, table sized by min(flops, ncols).
template <typename AV, typename T>
index_t symbolic_row_hash(const AV& a, const Csr<T>& b, index_t i,
                          index_t distinct_upper, ChunkScratch<T>& s) {
  s.hash.begin_row(distinct_upper);
  bool fresh;
  for (const index_t k : a.row_cols(i)) {
    for (const index_t j : b.row_cols(k)) s.hash.upsert(j, fresh);
  }
  return s.hash.count();
}

/// Gustavson scatter: accumulate row `i` into the dense accumulator,
/// leaving `s.touched` sorted and `s.acc` holding the folded values.
/// Callers emit from there — into a final slot (exact two-pass) or a
/// chunk slab (fused Gustavson path).
template <typename P, typename AV, typename T>
void gustavson_scatter(const P& p, const AV& a, const Csr<T>& b, index_t i,
                       ChunkScratch<T>& s) {
  const index_t gen = s.generation++;
  s.touched.clear();
  const auto acols = a.row_cols(i);
  const auto avals = a.gather_row_vals(i, s.stream_aval);
  for (std::size_t ka = 0; ka < acols.size(); ++ka) {
    const index_t k = acols[ka];
    const T av = avals[ka];
    const auto bcols = b.row_cols(k);
    const auto bvals = b.row_vals(k);
    for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
      const index_t j = bcols[kb];
      const T term = p.mul(av, bvals[kb]);
      auto& st = s.stamp[static_cast<std::size_t>(j)];
      if (st != gen) {
        st = gen;
        s.acc[static_cast<std::size_t>(j)] = term;
        s.touched.push_back(j);
      } else {
        s.acc[static_cast<std::size_t>(j)] =
            p.add(s.acc[static_cast<std::size_t>(j)], term);
      }
    }
  }
  std::sort(s.touched.begin(), s.touched.end());
}

/// Numeric Gustavson: scatter, then gather the sorted touched list
/// straight into the row's final slot.
template <typename P, typename AV, typename T>
void numeric_row_gustavson(const P& p, const AV& a, const Csr<T>& b,
                           index_t i, ChunkScratch<T>& s, index_t* out_cols,
                           T* out_vals) {
  gustavson_scatter(p, a, b, i, s);
  for (std::size_t t = 0; t < s.touched.size(); ++t) {
    out_cols[t] = s.touched[t];
    out_vals[t] = s.acc[static_cast<std::size_t>(s.touched[t])];
  }
}

/// Numeric hash: accumulate in the epoch-stamped table (sized exactly by
/// the symbolic count), then sort the live entries into the final slot.
template <typename P, typename AV, typename T>
void numeric_row_hash(const P& p, const AV& a, const Csr<T>& b, index_t i,
                      index_t row_nnz, ChunkScratch<T>& s, index_t* out_cols,
                      T* out_vals) {
  s.hash.begin_row(row_nnz);
  bool fresh;
  const auto acols = a.row_cols(i);
  const auto avals = a.gather_row_vals(i, s.stream_aval);
  for (std::size_t ka = 0; ka < acols.size(); ++ka) {
    const index_t k = acols[ka];
    const T av = avals[ka];
    const auto bcols = b.row_cols(k);
    const auto bvals = b.row_vals(k);
    for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
      const index_t j = bcols[kb];
      const T term = p.mul(av, bvals[kb]);
      const std::size_t slot = s.hash.upsert(j, fresh);
      s.hash.val(slot) = fresh ? term : p.add(s.hash.val(slot), term);
    }
  }
  s.emit.clear();
  for (const std::size_t slot : s.hash.used()) {
    s.emit.emplace_back(s.hash.key(slot), s.hash.val(slot));
  }
  std::sort(s.emit.begin(), s.emit.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (std::size_t t = 0; t < s.emit.size(); ++t) {
    out_cols[t] = s.emit[t].first;
    out_vals[t] = s.emit[t].second;
  }
}

/// Heap merge of row `i`, emitting (col, value) pairs in strictly
/// increasing column order through `emit` — no sort, no accumulator.
/// The emitter abstracts the destination: direct final-slot writes for
/// the exact two-pass engine, slab appends for the chunked engine.
template <typename P, typename AV, typename T, typename Emit>
void heap_merge_row(const P& p, const AV& a, const Csr<T>& b, index_t i,
                    ChunkScratch<T>& s, Emit&& emit) {
  auto& heap = s.heap;
  heap.clear();
  s.stream_bcols.clear();
  s.stream_bvals.clear();
  s.stream_blen.clear();
  const auto acols = a.row_cols(i);
  const auto avals = a.gather_row_vals(i, s.stream_aval);
  for (std::size_t ka = 0; ka < acols.size(); ++ka) {
    const auto bcols = b.row_cols(acols[ka]);
    const auto bvals = b.row_vals(acols[ka]);
    s.stream_bcols.push_back(bcols.data());
    s.stream_bvals.push_back(bvals.data());
    s.stream_blen.push_back(static_cast<index_t>(bcols.size()));
    if (!bcols.empty()) {
      heap.push_back(HeapCursor{bcols[0], static_cast<index_t>(ka), 0});
    }
  }
  cursor_heapify(heap);
  bool open = false;
  index_t cur_col = 0;
  T cur_val{};
  while (!heap.empty()) {
    HeapCursor& top = heap[0];
    const auto ka = static_cast<std::size_t>(top.ka);
    const index_t col = top.col;
    const T term =
        p.mul(avals[ka],
              s.stream_bvals[ka][static_cast<std::size_t>(top.pos)]);
    if (open && col == cur_col) {
      cur_val = p.add(cur_val, term);
    } else {
      if (open) emit(cur_col, cur_val);
      open = true;
      cur_col = col;
      cur_val = term;
    }
    if (top.pos + 1 < s.stream_blen[ka]) {
      // Replace-top: advance the stream in place, one sift.
      ++top.pos;
      top.col = s.stream_bcols[ka][static_cast<std::size_t>(top.pos)];
      cursor_sift_down(heap, 0);
    } else {
      heap[0] = heap.back();
      heap.pop_back();
      if (!heap.empty()) cursor_sift_down(heap, 0);
    }
  }
  if (open) emit(cur_col, cur_val);
}

/// Final-slot form of the heap merge for the exact two-pass engine.
template <typename P, typename AV, typename T>
index_t numeric_row_heap(const P& p, const AV& a, const Csr<T>& b, index_t i,
                         ChunkScratch<T>& s, index_t* out_cols, T* out_vals) {
  std::size_t t = 0;
  heap_merge_row(p, a, b, i, s, [&](index_t col, const T& val) {
    out_cols[t] = col;
    out_vals[t] = val;
    ++t;
  });
  return static_cast<index_t>(t);
}

/// kAuto per-row policy, fed by the symbolic pass:
///  - flops == nnz means no column ever collides, so with few streams the
///    allocator-free merge wins (no accumulator, no sort);
///  - a row filling a decent fraction of a small-ish output width wants
///    the dense accumulator (O(1) scatter, cache-resident);
///  - everything else (sparse rows of wide outputs, high compression)
///    goes to the hash accumulator.
inline SpGemmAlgo pick_row_algo(std::size_t a_row_nnz, index_t flops,
                                index_t nnz, index_t b_ncols) {
  if (flops == nnz && a_row_nnz <= 8) return SpGemmAlgo::kHeap;
  if (b_ncols <= 256 || nnz >= b_ncols / 8) return SpGemmAlgo::kGustavson;
  return SpGemmAlgo::kHash;
}

// run_chunked — the shared fork/join driver — lives in sparse/csr.hpp's
// detail namespace now: the COO→CSR assembly engine and the parallel
// transpose/CscView builders (PR 3) use the same chunk decomposition.

/// Chunk-slab engine for the kernels whose exact symbolic pass would
/// repeat their whole numeric cost (Gustavson's scatter *is* the count;
/// an exact heap symbolic would run the merge twice). Each chunk
/// computes its rows once into a contiguous chunk slab — exact per-row
/// counts fall out as a byproduct — and the prefix-sum stitch copies
/// each slab into the final arrays in one contiguous block. This is the
/// ROADMAP-prescribed shape: per-chunk contiguous col/val buffers
/// stitched by prefix sum, zero per-row allocations (slabs grow
/// geometrically, amortized across the chunk), peak memory O(output +
/// slack) regardless of the flops/nnz compression ratio.
/// `total_flops_hint` (optional, -1 = unknown) lets a caller that has
/// already scanned the structure (kAuto's matrix-level tier) skip the
/// per-chunk reserve rescan — the hint is apportioned by row share.
template <typename P, typename AV>
Csr<typename P::value_type> spgemm_chunk_slab(
    const P& p, const AV& a, const Csr<typename P::value_type>& b,
    SpGemmAlgo algo, util::ThreadPool* pool,
    index_t total_flops_hint = -1) {
  using T = typename P::value_type;
  const index_t nrows = a.nrows();
  const index_t b_ncols = b.ncols();
  const bool parallel = pool != nullptr && pool->size() > 1 && nrows > 0;
  const index_t nchunks = parallel ? pool->num_chunks(nrows) : 1;
  std::vector<detail::ChunkScratch<T>> scratch(
      static_cast<std::size_t>(nchunks));

  struct Slab {
    std::vector<index_t> cols;
    std::vector<T> vals;
  };
  std::vector<Slab> slabs(static_cast<std::size_t>(nchunks));
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);

  run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        auto& slab = slabs[static_cast<std::size_t>(chunk)];
        if (algo == SpGemmAlgo::kGustavson) s.ensure_dense(b_ncols);
        // Reserve the chunk's flops upper bound (capped per row by the
        // output width) so appends almost never reallocate mid-chunk.
        // The reserve itself is capped so a pathological compression
        // ratio (flops >> nnz) can't balloon peak memory — past the cap
        // the slab just grows geometrically like any vector.
        const index_t reserve_cap =
            std::max<index_t>(index_t{1} << 20, 2 * b.nnz());
        index_t ub = 0;
        if (total_flops_hint >= 0) {
          // The hint's share for rows [lo, hi), scaled in double and
          // capped before it returns to index_t: hint · (hi - lo) in
          // index_t overflows once it passes 2^63.
          ub = static_cast<index_t>(std::min(
              static_cast<double>(total_flops_hint) *
                  static_cast<double>(hi - lo) / static_cast<double>(nrows),
              static_cast<double>(reserve_cap)));
        } else {
          for (index_t i = lo; i < hi; ++i) {
            ub += std::min(row_flops(a, b, i), b_ncols);
          }
        }
        ub = std::min(ub, reserve_cap);
        slab.cols.reserve(static_cast<std::size_t>(ub));
        slab.vals.reserve(static_cast<std::size_t>(ub));
        for (index_t i = lo; i < hi; ++i) {
          const auto acols = a.row_cols(i);
          const std::size_t before = slab.cols.size();
          if (acols.size() == 1) {
            // Single stream: the row is B(k,:) mapped through ⊗ — no
            // accumulator, no merge, no sort.
            const T av = a.row_val(i, 0);
            const auto bcols = b.row_cols(acols[0]);
            const auto bvals = b.row_vals(acols[0]);
            slab.cols.insert(slab.cols.end(), bcols.begin(), bcols.end());
            for (std::size_t kb = 0; kb < bvals.size(); ++kb) {
              slab.vals.push_back(p.mul(av, bvals[kb]));
            }
          } else if (!acols.empty()) {
            if (algo == SpGemmAlgo::kGustavson) {
              gustavson_scatter(p, a, b, i, s);
              for (const index_t j : s.touched) {
                slab.cols.push_back(j);
                slab.vals.push_back(s.acc[static_cast<std::size_t>(j)]);
              }
            } else {  // kHeap
              heap_merge_row(p, a, b, i, s, [&](index_t col, const T& val) {
                slab.cols.push_back(col);
                slab.vals.push_back(val);
              });
            }
          }
          row_ptr[static_cast<std::size_t>(i) + 1] =
              static_cast<index_t>(slab.cols.size() - before);
        }
      });

  for (index_t i = 0; i < nrows; ++i) {
    row_ptr[static_cast<std::size_t>(i) + 1] +=
        row_ptr[static_cast<std::size_t>(i)];
  }

  // A single chunk's slab already is the concatenated output — move it
  // out instead of stitching (the serial path pays no copy at all),
  // unless the upper-bound reserve overshot badly enough that keeping
  // the slack capacity would waste real memory.
  if (nchunks == 1 &&
      slabs[0].cols.capacity() <=
          slabs[0].cols.size() + slabs[0].cols.size() / 8 + 64) {
    return Csr<T>(nrows, b_ncols, std::move(row_ptr),
                  std::move(slabs[0].cols), std::move(slabs[0].vals));
  }

  std::vector<index_t> cols(static_cast<std::size_t>(row_ptr.back()));
  std::vector<T> vals(static_cast<std::size_t>(row_ptr.back()));

  // Stitch: chunk `c` covers the same contiguous row range as in the
  // compute pass (the decomposition is a pure function of (n, size())),
  // so each slab lands with one contiguous copy.
  run_chunked(pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t) {
    const auto& slab = slabs[static_cast<std::size_t>(chunk)];
    const auto dst =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(lo)]);
    std::copy(slab.cols.begin(), slab.cols.end(), cols.begin() + dst);
    std::copy(slab.vals.begin(), slab.vals.end(), vals.begin() + dst);
  });

  return Csr<T>(nrows, b_ncols, std::move(row_ptr), std::move(cols),
                std::move(vals));
}

/// The two-pass engine, generic over the A-operand view (CSR rows or a
/// CSC view of the untransposed matrix).
template <typename P, typename AV>
Csr<typename P::value_type> spgemm_two_pass(
    const P& p, const AV& a, const Csr<typename P::value_type>& b,
    SpGemmAlgo algo, util::ThreadPool* pool) {
  using T = typename P::value_type;
  // Injection site: the product's working-set allocations (every algo
  // routes through here — chunk-slab included). A fire means the
  // product produced nothing; both operands are untouched, so callers
  // staging a batch delta lose only that staging attempt.
  I2A_FAILPOINT("spgemm.numeric.alloc");
  if (algo == SpGemmAlgo::kGustavson || algo == SpGemmAlgo::kHeap) {
    return spgemm_chunk_slab(p, a, b, algo, pool);
  }
  const index_t nrows = a.nrows();
  const index_t b_ncols = b.ncols();
  std::vector<index_t> flops_cache;  // kAuto only; symbolic reuses it
  if (algo == SpGemmAlgo::kAuto) {
    // Matrix-level tier of the auto policy: when rows are tiny on
    // average (the incidence-shape regime — avg flops/row ≈ vertex
    // degree), the exact symbolic pass costs as much as the product
    // itself, so take the fused chunk-slab engine instead. Gustavson
    // while the dense accumulator stays cache-comfortable, heap for
    // hyper-wide outputs. The per-row tier below only pays off once
    // rows are heavy enough to amortize their symbolic count; the scan
    // is kept (not redone) as the symbolic pass's flop source, and runs
    // on the pool — serialized it would cap speedup at ~2x in exactly
    // the tiny-row regime the tier exists for.
    flops_cache.resize(static_cast<std::size_t>(nrows));
    if (pool != nullptr && pool->size() > 1 && nrows > 0) {
      pool->parallel_for_chunks(nrows, [&](index_t, index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          flops_cache[static_cast<std::size_t>(i)] = row_flops(a, b, i);
        }
      });
    } else {
      for (index_t i = 0; i < nrows; ++i) {
        flops_cache[static_cast<std::size_t>(i)] = row_flops(a, b, i);
      }
    }
    index_t total_flops = 0;
    for (index_t i = 0; i < nrows; ++i) {
      total_flops =
          checked_add(total_flops, flops_cache[static_cast<std::size_t>(i)]);
    }
    if (total_flops < checked_mul(32, nrows)) {
      return spgemm_chunk_slab(
          p, a, b,
          b_ncols <= (index_t{1} << 15) ? SpGemmAlgo::kGustavson
                                        : SpGemmAlgo::kHeap,
          pool, total_flops);
    }
  }

  // row_ptr doubles as the symbolic pass's per-row count buffer
  // (row_ptr[i + 1] = nnz of row i) before the prefix sum runs.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<std::uint8_t> row_algo;
  if (algo == SpGemmAlgo::kAuto) {
    row_algo.assign(static_cast<std::size_t>(nrows),
                    static_cast<std::uint8_t>(SpGemmAlgo::kHeap));
  }

  const bool parallel = pool != nullptr && pool->size() > 1 && nrows > 0;
  const index_t nchunks = parallel ? pool->num_chunks(nrows) : 1;
  std::vector<detail::ChunkScratch<T>> scratch(
      static_cast<std::size_t>(nchunks));

  run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        for (index_t i = lo; i < hi; ++i) {
          const auto acols = a.row_cols(i);
          index_t nnz = 0;
          if (acols.size() <= 1) {
            // 0 or 1 streams: no collisions possible, nnz is immediate —
            // and the streaming merge is the optimal numeric kernel.
            nnz = acols.empty() ? 0 : b.row_nnz(acols[0]);
            if (algo == SpGemmAlgo::kAuto) {
              row_algo[static_cast<std::size_t>(i)] =
                  static_cast<std::uint8_t>(SpGemmAlgo::kHeap);
            }
          } else {  // kHash / kAuto: exact count, no O(ncols) dense array
            const index_t flops =
                algo == SpGemmAlgo::kAuto
                    ? flops_cache[static_cast<std::size_t>(i)]
                    : row_flops(a, b, i);
            if (flops > 0) {
              nnz = symbolic_row_hash(a, b, i, std::min(flops, b_ncols), s);
            }
            if (algo == SpGemmAlgo::kAuto) {
              row_algo[static_cast<std::size_t>(i)] =
                  static_cast<std::uint8_t>(
                      pick_row_algo(acols.size(), flops, nnz, b_ncols));
            }
          }
          row_ptr[static_cast<std::size_t>(i) + 1] = nnz;
        }
      });

  // Stitch: one serial prefix sum sizes the output arrays exactly.
  for (index_t i = 0; i < nrows; ++i) {
    row_ptr[static_cast<std::size_t>(i) + 1] +=
        row_ptr[static_cast<std::size_t>(i)];
  }
  std::vector<index_t> cols(static_cast<std::size_t>(row_ptr.back()));
  std::vector<T> vals(static_cast<std::size_t>(row_ptr.back()));

  run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        for (index_t i = lo; i < hi; ++i) {
          const index_t offset = row_ptr[static_cast<std::size_t>(i)];
          const index_t nnz =
              row_ptr[static_cast<std::size_t>(i) + 1] - offset;
          if (nnz == 0) continue;
          index_t* out_cols = cols.data() + offset;
          T* out_vals = vals.data() + offset;
          SpGemmAlgo row = algo;
          if (algo == SpGemmAlgo::kAuto) {
            row = static_cast<SpGemmAlgo>(
                row_algo[static_cast<std::size_t>(i)]);
          } else if (a.row_cols(i).size() <= 1) {
            row = SpGemmAlgo::kHeap;  // single stream: pure merge
          }
          switch (row) {
            case SpGemmAlgo::kGustavson:
              s.ensure_dense(b_ncols);
              numeric_row_gustavson(p, a, b, i, s, out_cols, out_vals);
              break;
            case SpGemmAlgo::kHash:
              numeric_row_hash(p, a, b, i, nnz, s, out_cols, out_vals);
              break;
            case SpGemmAlgo::kHeap:
            case SpGemmAlgo::kAuto:  // unreachable: kAuto resolves per row
              numeric_row_heap(p, a, b, i, s, out_cols, out_vals);
              break;
          }
        }
      });

  return Csr<T>(nrows, b_ncols, std::move(row_ptr), std::move(cols),
                std::move(vals));
}

}  // namespace detail

/// C = A ⊕.⊗ B with sparse-shortcut semantics via the two-pass engine.
/// `pool` enables row-chunk parallelism (each chunk owns private scratch
/// shared between the symbolic and numeric passes); null or
/// single-thread pools run serially. Output is byte-identical across
/// pool sizes. The `Semiring` constraint rejects structurally malformed
/// pairs and pairs that declare a broken ⊕/⊗ law at compile time
/// (algebra/concepts.hpp).
template <typename P>
  requires algebra::Semiring<P>
Csr<typename P::value_type> spgemm(const P& p,
                                   const Csr<typename P::value_type>& a,
                                   const Csr<typename P::value_type>& b,
                                   SpGemmAlgo algo = SpGemmAlgo::kGustavson,
                                   util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  I2A_EXPECTS(a.ncols() == b.nrows(), "spgemm: inner dimensions disagree");
  I2A_EXPECTS(a.is_canonical(), "spgemm: A not canonical CSR");
  I2A_EXPECTS(b.is_canonical(), "spgemm: B not canonical CSR");
  auto c = detail::spgemm_two_pass(p, detail::CsrRowsView<T>{a}, b, algo, pool);
  I2A_ENSURES(c.is_canonical(), "spgemm: non-canonical product");
  return c;
}

/// C = Aᵀ ⊕.⊗ B — the paper's product shape (A and B are both tall
/// edge×vertex incidence arrays) — fused over a prebuilt CSC view of A.
/// The engine runs over the view's slots; a hypersparse view's product
/// comes out one row per stored column and `expand_rows` places those
/// rows in the n-row result with one Θ(n) pass of range fills, the only
/// step that scales with n. Bytes do not depend on the view's layout.
/// Build the view once per incidence array and amortize it across
/// products (forward + reverse adjacency, repeated algebra sweeps).
template <typename P>
  requires algebra::Semiring<P>
Csr<typename P::value_type> spgemm_at_b(
    const P& p, const CscView<typename P::value_type>& at,
    const Csr<typename P::value_type>& b,
    SpGemmAlgo algo = SpGemmAlgo::kGustavson,
    util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  I2A_EXPECTS(at.ncols() == b.nrows(),
              "spgemm_at_b: inner dimensions disagree");
  I2A_EXPECTS(b.is_canonical(), "spgemm_at_b: B not canonical CSR");
  auto c = detail::spgemm_two_pass(p, detail::CscSlotsView<T>{at}, b, algo,
                                   pool);
  if (!at.dense()) c = std::move(c).expand_rows(at.nrows(), at.col_ids());
  I2A_ENSURES(c.is_canonical(), "spgemm_at_b: non-canonical product");
  return c;
}

/// C = Aᵀ ⊕.⊗ B convenience overload: builds the CSC view internally
/// (a dense view's counting sort runs on the pool, when one is given —
/// it chunks the same way the product does). Structure only: no value
/// array is ever copied or re-laid-out.
template <typename P>
  requires algebra::Semiring<P>
Csr<typename P::value_type> spgemm_at_b(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b,
    SpGemmAlgo algo = SpGemmAlgo::kGustavson,
    util::ThreadPool* pool = nullptr) {
  I2A_EXPECTS(a.nrows() == b.nrows(),
              "spgemm_at_b: Aᵀ inner dimension disagrees with B");
  I2A_EXPECTS(a.is_canonical(), "spgemm_at_b: A not canonical CSR");
  return spgemm_at_b(p, CscView<typename P::value_type>(a, pool), b, algo,
                     pool);
}

}  // namespace i2a::sparse

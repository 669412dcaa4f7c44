#pragma once
/// \file sparse/hypercsr.hpp
/// \brief `HyperCsr`: the run type of the streaming ladder — a sparse
///        matrix that stores only its non-empty rows (DCSR, the
///        row-id-list layout GraphBLAS uses for hypersparse matrices,
///        Kepner et al. 1606.05790) until they are a large enough share
///        of the row space, and every row from then on.
///
/// A streaming batch touches a few hundred rows of an n-vertex
/// adjacency; a `Csr` over that batch still carries an (n + 1)-entry row
/// pointer, so every step that builds, copies or walks one costs Θ(n)
/// regardless of the batch. `HyperCsr` has two layouts, chosen by the
/// content alone:
///
///   * **hypersparse** — `row_ids` lists the non-empty rows, strictly
///     increasing, and `row_ptr` (size |row_ids| + 1) indexes their
///     entries. Storage and every walk are O(non-empty rows + nnz);
///     `row_cols(r)` finds row r through a linear-probing hash of
///     `row_ids` (O(1) expected — the role SuiteSparse:GraphBLAS's
///     hyper-hash plays), so a reader's per-row lookup costs what the
///     dense layout's does.
///   * **dense** — once the non-empty rows reach 1/`kDenseRowShare`
///     (sparse/csr.hpp) of `nrows`, `row_ids` is empty and `row_ptr` has
///     nrows + 1 entries, exactly a `Csr`: O(1) row lookup, and the
///     Θ(nrows) pointer costs at most `kDenseRowShare` entries per
///     stored row.
///
/// The layout is a function of the content (`is_canonical` checks it),
/// so two equal matrices have equal bytes in either layout. `from_csr` /
/// `to_csr` convert at the boundaries that want the classic array (a
/// materialized snapshot, the checkpoint format); every expansion of
/// row ids to a full pointer goes through `detail::expand_row_ptr`.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "util/contract.hpp"

namespace i2a::sparse {

template <typename T>
class HyperCsr {
 public:
  /// The 0 × 0 matrix.
  HyperCsr() : row_ptr_{0} {}

  /// The empty nrows × ncols matrix, in its canonical layout.
  static HyperCsr empty(index_t nrows, index_t ncols) {
    return from_rows(nrows, ncols, {}, {0}, {}, {});
  }

  /// Build from the hypersparse pieces: `row_ids` (strictly increasing,
  /// each row non-empty) and `row_ptr` over them. Expands to the dense
  /// layout when the rows clear the density bar.
  static HyperCsr from_rows(index_t nrows, index_t ncols,
                            std::vector<index_t> row_ids,
                            std::vector<index_t> row_ptr,
                            std::vector<index_t> cols, std::vector<T> vals) {
    HyperCsr out;
    out.nrows_ = nrows;
    out.ncols_ = ncols;
    out.cols_ = std::move(cols);
    out.vals_ = std::move(vals);
    if (dense_layout(nrows, static_cast<index_t>(row_ids.size()))) {
      out.row_ptr_ = detail::expanded_row_ptr(nrows, row_ids, row_ptr);
    } else {
      out.dense_ = false;
      out.row_ids_ = std::move(row_ids);
      out.row_ptr_ = std::move(row_ptr);
      out.build_hash();
    }
    return out;
  }

  /// Adopt dense pieces — a `Csr`'s three arrays — for a matrix whose
  /// non-empty rows clear the density bar.
  static HyperCsr from_dense(index_t nrows, index_t ncols,
                             std::vector<index_t> row_ptr,
                             std::vector<index_t> cols, std::vector<T> vals) {
    HyperCsr out;
    out.nrows_ = nrows;
    out.ncols_ = ncols;
    out.row_ptr_ = std::move(row_ptr);
    out.cols_ = std::move(cols);
    out.vals_ = std::move(vals);
    return out;
  }

  /// Convert a canonical `Csr`: O(nrows + nnz).
  static HyperCsr from_csr(const Csr<T>& a) {
    I2A_EXPECTS(a.is_canonical(), "HyperCsr::from_csr: input not canonical");
    index_t stored = 0;
    for (index_t r = 0; r < a.nrows(); ++r) stored += a.row_nnz(r) > 0;
    if (dense_layout(a.nrows(), stored)) {
      return from_dense(a.nrows(), a.ncols(), a.row_ptr(), a.cols(),
                        a.vals());
    }
    std::vector<index_t> row_ids;
    std::vector<index_t> row_ptr;
    row_ids.reserve(static_cast<std::size_t>(stored));
    row_ptr.reserve(static_cast<std::size_t>(stored) + 1);
    for (index_t r = 0; r < a.nrows(); ++r) {
      if (a.row_nnz(r) == 0) continue;
      row_ids.push_back(r);
      row_ptr.push_back(a.row_ptr()[static_cast<std::size_t>(r)]);
    }
    row_ptr.push_back(a.nnz());
    return from_rows(a.nrows(), a.ncols(), std::move(row_ids),
                     std::move(row_ptr), a.cols(), a.vals());
  }

  /// The classic array with the same content: O(nrows + nnz), the
  /// entries copied.
  Csr<T> to_csr() const& {
    return Csr<T>(nrows_, ncols_,
                  dense_ ? row_ptr_
                         : detail::expanded_row_ptr(nrows_, row_ids_,
                                                    row_ptr_),
                  cols_, vals_);
  }
  /// `to_csr` of a matrix about to be dropped: the entries move, so only
  /// a hypersparse pointer's Θ(nrows) expansion is left to pay.
  Csr<T> to_csr() && {
    std::vector<index_t> row_ptr =
        dense_ ? std::move(row_ptr_)
               : detail::expanded_row_ptr(nrows_, row_ids_, row_ptr_);
    return Csr<T>(nrows_, ncols_, std::move(row_ptr), std::move(cols_),
                  std::move(vals_));
  }

  /// Call `f(v)` with each of the nrows + 1 entries of the equivalent
  /// `Csr` row pointer, in order, without building it.
  template <typename F>
  void for_each_csr_row_ptr(const F& f) const {
    if (dense()) {
      for (const index_t v : row_ptr_) f(v);
      return;
    }
    detail::expand_row_ptr(nrows_, row_ids_, row_ptr_,
                           [&f](index_t count, index_t v) {
                             for (index_t k = 0; k < count; ++k) f(v);
                           });
  }

  /// True iff the layout is dense (every row stored).
  static bool dense_layout(index_t nrows, index_t nonempty_rows) {
    return nonempty_rows >= nrows / kDenseRowShare;
  }

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  index_t nnz() const { return static_cast<index_t>(cols_.size()); }
  bool dense() const { return dense_; }

  /// Rows are stored in *slots*: slot s holds row s when dense and row
  /// `row_ids()[s]` otherwise, with its entries at
  /// [`row_ptr()[s]`, `row_ptr()[s + 1]`).
  ///
  /// The first slot whose row is ≥ r (the slot count if none) — where a
  /// walk over increasing rows starts.
  index_t lower_slot(index_t r) const {
    if (dense_) return std::clamp<index_t>(r, 0, nrows_);
    return static_cast<index_t>(
        std::lower_bound(row_ids_.begin(), row_ids_.end(), r) -
        row_ids_.begin());
  }
  /// The slot holding row `r`, or -1 when the row is not stored: O(1)
  /// dense; hypersparse, O(1) expected through the row-id hash.
  index_t slot_of(index_t r) const {
    if (dense_) return r;
    if (hash_.empty()) return -1;
    const std::size_t mask = hash_.size() - 1;
    for (std::size_t h = hash_home(r);; h = (h + 1) & mask) {
      const index_t s = hash_[h];
      if (s < 0 || row_ids_[static_cast<std::size_t>(s)] == r) return s;
    }
  }

  /// Column indices of row `r` (strictly increasing; empty for an
  /// unstored row).
  std::span<const index_t> row_cols(index_t r) const {
    const index_t s = slot_of(r);
    if (s < 0) return {};
    return {cols_.data() + slot_begin(s), slot_len(s)};
  }
  /// Values of row `r`, parallel to `row_cols(r)`.
  std::span<const T> row_vals(index_t r) const {
    const index_t s = slot_of(r);
    if (s < 0) return {};
    return {vals_.data() + slot_begin(s), slot_len(s)};
  }

  /// Raw storage: `row_ids` is empty in the dense layout; `row_ptr` has
  /// one entry per slot plus one.
  const std::vector<index_t>& row_ids() const { return row_ids_; }
  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& cols() const { return cols_; }
  const std::vector<T>& vals() const { return vals_; }

  /// Every invariant: dimensions, pointer shape and monotonicity, the
  /// row-id list strictly increasing and in range with no empty stored
  /// row, columns in range and strictly increasing per row, and the
  /// layout the one `dense_layout` picks for this content.
  bool is_canonical() const {
    if (nrows_ < 0 || ncols_ < 0) return false;
    if (cols_.size() != vals_.size()) return false;
    if (row_ptr_.empty() || row_ptr_.front() != 0 ||
        row_ptr_.back() != nnz()) {
      return false;
    }
    const bool is_dense = dense_;
    if (is_dense ? !row_ids_.empty() ||
                       row_ptr_.size() != static_cast<std::size_t>(nrows_) + 1
                 : row_ptr_.size() != row_ids_.size() + 1) {
      return false;
    }
    index_t nonempty = 0;
    for (std::size_t s = 0; s + 1 < row_ptr_.size(); ++s) {
      if (row_ptr_[s] > row_ptr_[s + 1]) return false;
      if (row_ptr_[s] < row_ptr_[s + 1]) {
        ++nonempty;
      } else if (!is_dense) {
        return false;  // a hypersparse slot must hold entries
      }
      if (!is_dense) {
        const index_t r = row_ids_[s];
        if (r < 0 || r >= nrows_) return false;
        if (s > 0 && row_ids_[s - 1] >= r) return false;
      }
      for (index_t k = row_ptr_[s]; k < row_ptr_[s + 1]; ++k) {
        const index_t c = cols_[static_cast<std::size_t>(k)];
        if (c < 0 || c >= ncols_) return false;
        if (k > row_ptr_[s] && cols_[static_cast<std::size_t>(k) - 1] >= c) {
          return false;
        }
      }
    }
    if (dense_layout(nrows_, nonempty) != is_dense) return false;
    if (is_dense) return hash_.empty();
    // The row-id hash: sized for the stored rows, one live bucket per
    // row, and every row found in its own slot.
    if (hash_.size() !=
        (row_ids_.empty() ? 0 : std::bit_ceil(2 * row_ids_.size()))) {
      return false;
    }
    if (static_cast<std::size_t>(std::count_if(
            hash_.begin(), hash_.end(), [](index_t v) { return v >= 0; })) !=
        row_ids_.size()) {
      return false;
    }
    for (std::size_t s = 0; s < row_ids_.size(); ++s) {
      if (slot_of(row_ids_[s]) != static_cast<index_t>(s)) return false;
    }
    return true;
  }

 private:
  std::size_t slot_begin(index_t s) const {
    return static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(s)]);
  }
  std::size_t slot_len(index_t s) const {
    return static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(s) + 1] -
                                    row_ptr_[static_cast<std::size_t>(s)]);
  }

  /// Home bucket of row `r`: Fibonacci hashing, the top bits of
  /// r · 2^64/φ.
  std::size_t hash_home(index_t r) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL) >> hash_shift_);
  }

  /// Index the stored rows: a linear-probing table, a power of two at
  /// least twice their count, mapping row id → slot (-1 = empty).
  void build_hash() {
    if (row_ids_.empty()) return;
    const std::size_t size = std::bit_ceil(2 * row_ids_.size());
    hash_shift_ = 64 - std::countr_zero(size);
    hash_.assign(size, -1);
    for (std::size_t s = 0; s < row_ids_.size(); ++s) {
      std::size_t h = hash_home(row_ids_[s]);
      while (hash_[h] >= 0) h = (h + 1) & (size - 1);
      hash_[h] = static_cast<index_t>(s);
    }
  }

  index_t nrows_ = 0;
  index_t ncols_ = 0;
  bool dense_ = true;             // the layout (see the file comment)
  std::vector<index_t> row_ids_;  // hypersparse: the non-empty rows
  std::vector<index_t> hash_;     // hypersparse: row id → slot (build_hash)
  int hash_shift_ = 64;
  std::vector<index_t> row_ptr_;  // slots + 1
  std::vector<index_t> cols_;     // nnz, strictly increasing per row
  std::vector<T> vals_;           // nnz
};

}  // namespace i2a::sparse

#pragma once
// Block assembly for batched query serving — stack many operands into one.
//
// The serving engine (serve/) turns K concurrent queries against a shared
// base matrix into ONE masked product: per-query left operands concatenate
// into disjoint row ranges (concat_blocks / concat_rows) and the stacked
// result splits back per query (split_rows). block_diag additionally
// offsets columns:
//
//   block_diag(A_1..A_K) ⊕.⊗ concat_rows(B_1..B_K)  =  concat_rows(C_1..C_K)
//
// Everything here is an offset-shifted CSR concat: row pointers, column
// indices, and values are copied in parallel to positions fixed by the
// input alone (per-block offsets), so assembly is deterministic at any
// thread count — and the split result is bit-identical to what each query
// would have produced alone.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sparse/matrix.hpp"
#include "util/parallel.hpp"

namespace hyperspace::sparse {

/// One operand placed at (row_offset, col_offset) inside the stacked
/// matrix. Row ranges of distinct blocks must be disjoint.
template <typename T>
struct Block {
  const Matrix<T>* m = nullptr;
  Index row_offset = 0;
  Index col_offset = 0;
};

/// Assemble blocks into one nrows × ncols matrix (CSR, or DCSR when the
/// stacked shape is hypersparse). Blocks may appear in any order but their
/// row ranges must be disjoint and in bounds.
template <typename T>
Matrix<T> concat_blocks(Index nrows, Index ncols, std::vector<Block<T>> blocks,
                        T implicit_zero = T{}) {
  for (const auto& b : blocks) {
    if (b.m == nullptr) throw std::invalid_argument("concat_blocks: null block");
  }
  // Zero-row blocks share their row_offset with the block that follows
  // them; ties break on height so empty blocks sort FIRST and the overlap
  // validation below (row_offset < prev_end) doesn't reject a valid
  // batch. Equal (offset, height) pairs are both empty and interchangeable,
  // so the unstable sort is still deterministic in its output.
  std::sort(blocks.begin(), blocks.end(),
            [](const Block<T>& a, const Block<T>& b) {
              if (a.row_offset != b.row_offset) {
                return a.row_offset < b.row_offset;
              }
              return a.m->nrows() < b.m->nrows();
            });
  // Views are gathered serially: CSR's view() materializes its row-id cache
  // on first use and must not race.
  std::vector<SparseView<T>> views;
  views.reserve(blocks.size());
  Index prev_end = 0;
  for (const auto& b : blocks) {
    if (b.m == nullptr) throw std::invalid_argument("concat_blocks: null block");
    if (b.row_offset < prev_end || b.row_offset + b.m->nrows() > nrows ||
        b.col_offset < 0 || b.col_offset + b.m->ncols() > ncols) {
      throw std::invalid_argument("concat_blocks: block out of range");
    }
    prev_end = b.row_offset + b.m->nrows();
    views.push_back(b.m->view());
  }
  const auto nparts = static_cast<std::ptrdiff_t>(blocks.size());
  // Cost hints, rows or entries per part: a small batch's loops stay below
  // one tile's worth and run inline instead of waking the pool.
  const auto rows_of = [&views](std::ptrdiff_t p) -> std::uint64_t {
    return views[static_cast<std::size_t>(p)].row_ids.size();
  };
  const auto entries_of = [&views](std::ptrdiff_t p) -> std::uint64_t {
    const auto& v = views[static_cast<std::size_t>(p)];
    return v.row_ids.size() + static_cast<std::uint64_t>(v.nnz());
  };

  // Per-block entry and non-empty-row offsets (serial prefix over K parts).
  std::vector<std::size_t> val_off(blocks.size() + 1, 0);
  std::vector<std::size_t> ne_count(blocks.size(), 0);
  util::parallel_for(0, nparts, 1, [&](std::ptrdiff_t p) {
    const auto& v = views[static_cast<std::size_t>(p)];
    std::size_t ne = 0;
    for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
      ne += !v.row_cols(ri).empty();
    }
    ne_count[static_cast<std::size_t>(p)] = ne;
  }, rows_of);
  std::vector<std::size_t> ne_off(blocks.size() + 1, 0);
  for (std::size_t p = 0; p < blocks.size(); ++p) {
    val_off[p + 1] =
        val_off[p] + static_cast<std::size_t>(views[p].nnz());
    ne_off[p + 1] = ne_off[p] + ne_count[p];
  }
  const std::size_t total_nnz = val_off.back();
  const auto total_ne = static_cast<Index>(ne_off.back());

  // Same tail rule as choose_format: hypersparse row space ⇒ DCSR.
  const bool dcsr = nrows > kMaxCsrRows || total_ne * 8 < nrows;
  if (!dcsr) {
    std::vector<Index> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
    std::vector<Index> cols(total_nnz);
    std::vector<T> vals(total_nnz);
    // Blocks are row-disjoint and sorted, so block order IS row-major
    // order: block p's entries land contiguously at val_off[p].
    util::parallel_for(0, nparts, 1, [&](std::ptrdiff_t p) {
      const auto& v = views[static_cast<std::size_t>(p)];
      const auto& b = blocks[static_cast<std::size_t>(p)];
      const std::size_t base = val_off[static_cast<std::size_t>(p)];
      for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
        const auto rc = v.row_cols(ri);
        const auto rv = v.row_vals(ri);
        const auto grow = static_cast<std::size_t>(b.row_offset + v.row_ids[ri]);
        row_ptr[grow + 1] = static_cast<Index>(rc.size());
        std::size_t o = base + static_cast<std::size_t>(v.row_ptr[ri]);
        for (std::size_t j = 0; j < rc.size(); ++j, ++o) {
          cols[o] = rc[j] + b.col_offset;
          vals[o] = rv[j];
        }
      }
    }, entries_of);
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      row_ptr[r + 1] += row_ptr[r];
    }
    return Matrix<T>::from_csr(
        Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
               std::move(vals)),
        std::move(implicit_zero));
  }

  std::vector<Index> row_ids(static_cast<std::size_t>(total_ne));
  std::vector<Index> row_len(static_cast<std::size_t>(total_ne));
  std::vector<Index> cols(total_nnz);
  std::vector<T> vals(total_nnz);
  util::parallel_for(0, nparts, 1, [&](std::ptrdiff_t p) {
    const auto& v = views[static_cast<std::size_t>(p)];
    const auto& b = blocks[static_cast<std::size_t>(p)];
    const std::size_t vbase = val_off[static_cast<std::size_t>(p)];
    std::size_t pos = ne_off[static_cast<std::size_t>(p)];
    for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
      const auto rc = v.row_cols(ri);
      if (rc.empty()) continue;
      const auto rv = v.row_vals(ri);
      row_ids[pos] = b.row_offset + v.row_ids[ri];
      row_len[pos] = static_cast<Index>(rc.size());
      ++pos;
      std::size_t o = vbase + static_cast<std::size_t>(v.row_ptr[ri]);
      for (std::size_t j = 0; j < rc.size(); ++j, ++o) {
        cols[o] = rc[j] + b.col_offset;
        vals[o] = rv[j];
      }
    }
  }, entries_of);
  std::vector<Index> row_ptr(static_cast<std::size_t>(total_ne) + 1, 0);
  for (std::size_t r = 0; r < row_len.size(); ++r) {
    row_ptr[r + 1] = row_ptr[r] + row_len[r];
  }
  return Matrix<T>::from_dcsr(
      Dcsr<T>(nrows, ncols, std::move(row_ids), std::move(row_ptr),
              std::move(cols), std::move(vals)),
      std::move(implicit_zero));
}

/// Vertical stack: parts share a column space; rows concatenate in order.
template <typename T>
Matrix<T> concat_rows(const std::vector<const Matrix<T>*>& parts,
                      T implicit_zero = T{}) {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Block<T>> blocks;
  blocks.reserve(parts.size());
  for (const auto* p : parts) {
    if (p == nullptr) throw std::invalid_argument("concat_rows: null part");
    if (!blocks.empty() && p->ncols() != ncols) {
      throw std::invalid_argument("concat_rows: column count mismatch");
    }
    ncols = p->ncols();
    blocks.push_back({p, nrows, 0});
    nrows += p->nrows();
  }
  return concat_blocks(nrows, ncols, std::move(blocks),
                       std::move(implicit_zero));
}

/// Block-diagonal embedding: rows AND columns offset per part, zeros
/// elsewhere. blkdiag(A_1..A_K) ⊕.⊗ concat_rows(B_1..B_K) computes every
/// A_q ⊕.⊗ B_q in one launch.
template <typename T>
Matrix<T> block_diag(const std::vector<const Matrix<T>*>& parts,
                     T implicit_zero = T{}) {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Block<T>> blocks;
  blocks.reserve(parts.size());
  for (const auto* p : parts) {
    if (p == nullptr) throw std::invalid_argument("block_diag: null part");
    blocks.push_back({p, nrows, ncols});
    nrows += p->nrows();
    ncols += p->ncols();
  }
  return concat_blocks(nrows, ncols, std::move(blocks),
                       std::move(implicit_zero));
}

/// Scatter — the inverse of concat_rows: split rows [offsets[q],
/// offsets[q+1]) into per-query matrices with rows rebased to zero.
/// Each slice's triples are exactly the canonical triples the per-query
/// kernel would emit, so every split result is bit-identical (format
/// switch rule included) to its per-query counterpart.
template <typename T>
std::vector<Matrix<T>> split_rows(const Matrix<T>& stacked,
                                  std::span<const Index> offsets,
                                  T implicit_zero = T{}) {
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != stacked.nrows() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("split_rows: bad offsets");
  }
  const SparseView<T> v = stacked.view();
  const auto nparts = static_cast<std::ptrdiff_t>(offsets.size() - 1);
  std::vector<Matrix<T>> out(static_cast<std::size_t>(nparts));
  util::parallel_for(0, nparts, 1, [&](std::ptrdiff_t q) {
    const Index lo = offsets[static_cast<std::size_t>(q)];
    const Index hi = offsets[static_cast<std::size_t>(q) + 1];
    const auto first = std::lower_bound(v.row_ids.begin(), v.row_ids.end(), lo);
    const auto last = std::lower_bound(first, v.row_ids.end(), hi);
    std::vector<Triple<T>> t;
    for (auto it = first; it != last; ++it) {
      const auto ri = static_cast<std::size_t>(it - v.row_ids.begin());
      const auto rc = v.row_cols(ri);
      const auto rv = v.row_vals(ri);
      for (std::size_t j = 0; j < rc.size(); ++j) {
        t.push_back({*it - lo, rc[j], rv[j]});
      }
    }
    out[static_cast<std::size_t>(q)] =
        Matrix<T>::from_canonical_triples(hi - lo, v.ncols, t, implicit_zero);
  });
  return out;
}

}  // namespace hyperspace::sparse

#pragma once
// ShardMap — the partition authority of the serving engine.
//
// A shard map cuts ONE logical base (n × c) into N contiguous row-range
// shards: shard s is a standalone base holding global rows
// [cuts[s], cuts[s+1]) as local rows 0..height, with the full column
// space. Shards are built once via the existing split primitive
// (sparse::split_rows) and handed to the Router's per-shard workers; the
// map keeps the cuts — the local↔global row translation — and performs
// the router's scatter: splitting a query's lhs by COLUMN ranges (lhs
// columns index base rows) into per-shard sub-operands, rebased into each
// shard's local row space. That realignment happens ONCE here, at the
// router — a shard worker only ever sees operands already in its own
// coordinates.
//
// The 1-shard map is the base itself, verbatim (moved, not copied, not
// translated): the unsharded engine is the 1-shard instantiation of this
// stack.

#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/delta.hpp"
#include "sparse/matrix.hpp"
#include "sparse/shard.hpp"

namespace hyperspace::serve {

template <typename T>
class ShardMap {
 public:
  ShardMap() = default;

  /// Partition `base` into N even row-range shards.
  static ShardMap split(sparse::Matrix<T> base, int n_shards) {
    auto cuts = sparse::even_cuts(base.nrows(), n_shards);
    return with_cuts(std::move(base), std::move(cuts));
  }

  /// Partition `base` at explicit cuts (ascending, 0 → nrows; equal
  /// consecutive cuts make a legal zero-height shard).
  static ShardMap with_cuts(sparse::Matrix<T> base,
                            std::vector<sparse::Index> cuts) {
    sparse::validate_cuts(cuts, base.nrows());
    ShardMap m;
    m.ncols_ = base.ncols();
    m.zero_ = base.implicit_zero();
    m.cuts_ = std::move(cuts);
    if (m.cuts_.size() == 2) {
      // 1 shard: the base itself — no split, no copy, no translation.
      m.shards_.push_back(std::move(base));
    } else {
      m.shards_ = sparse::split_rows(base, m.cuts_, base.implicit_zero());
    }
    return m;
  }

  std::size_t n_shards() const { return cuts_.size() - 1; }
  sparse::Index nrows() const { return cuts_.back(); }
  sparse::Index ncols() const { return ncols_; }
  const std::vector<sparse::Index>& cuts() const { return cuts_; }
  sparse::Index height(std::size_t s) const { return cuts_[s + 1] - cuts_[s]; }

  /// Shard owning global base row r.
  std::size_t shard_of(sparse::Index r) const {
    return sparse::shard_of(cuts_, r);
  }

  const sparse::Matrix<T>& shard(std::size_t s) const { return shards_.at(s); }

  /// Move shard s's base out (router construction hands each shard base to
  /// its worker exactly once; the map keeps cuts and shapes for routing).
  sparse::Matrix<T> take_shard(std::size_t s) {
    return std::move(shards_.at(s));
  }

  /// Scatter a query's lhs: which shards does its key space touch, and
  /// what is the per-shard sub-operand? Sub-lhs s holds the lhs columns in
  /// shard s's row range, rebased local — split ONCE here. Shards with no
  /// lhs support are skipped entirely (the shard-level §IV annihilation:
  /// disjoint key ranges contribute nothing). An all-empty lhs touches no
  /// shard.
  struct Scatter {
    std::vector<std::size_t> shards;        ///< touched, ascending
    std::vector<sparse::Matrix<T>> lhs;     ///< one rebased sub-lhs each
  };
  Scatter scatter(const sparse::Matrix<T>& lhs) const {
    if (lhs.ncols() != nrows()) {
      throw std::invalid_argument("ShardMap: query inner dimension mismatch");
    }
    Scatter sc;
    if (n_shards() == 1) {
      // Pass-through: no split, no copy of the lhs pattern.
      if (lhs.nnz() > 0) {
        sc.shards.push_back(0);
        sc.lhs.push_back(lhs);
      }
      return sc;
    }
    auto parts = sparse::split_cols(lhs, cuts_, lhs.implicit_zero());
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].nnz() > 0) {
        sc.shards.push_back(s);
        sc.lhs.push_back(std::move(parts[s]));
      }
    }
    return sc;
  }

  /// Scatter a mutation batch: update (r, c) lands on shard_of(r) as
  /// local row r − cuts[s] (columns are untouched — shards keep the full
  /// column space). Relative order within each shard's slice is preserved,
  /// so per-key last-wins semantics survive the split. Out-of-range keys
  /// throw before anything is scattered. Returns one (possibly empty)
  /// batch per shard, indexed by shard id.
  std::vector<sparse::UpdateBatch<T>> scatter_updates(
      const sparse::UpdateBatch<T>& ops) const {
    for (const auto& u : ops) {
      if (u.row < 0 || u.row >= nrows() || u.col < 0 || u.col >= ncols_) {
        throw std::out_of_range("ShardMap: update key out of range");
      }
    }
    std::vector<sparse::UpdateBatch<T>> out(n_shards());
    for (const auto& u : ops) {
      const std::size_t s = shard_of(u.row);
      auto local = u;
      local.row = u.row - cuts_[s];
      out[s].push_back(std::move(local));
    }
    return out;
  }

 private:
  std::vector<sparse::Index> cuts_;      ///< size N+1, 0 → nrows
  std::vector<sparse::Matrix<T>> shards_;
  sparse::Index ncols_ = 0;
  T zero_{};
};

}  // namespace hyperspace::serve

#pragma once
// Array multiplication C = A ⊕.⊗ B — the fundamental array operation the
// paper pairs with breadth-first-search (Fig 1) and uses to project
// incidence arrays onto adjacency arrays (Fig 3):
//
//   C(i, j) = ⨁_k A(i, k) ⊗ B(k, j)
//
// One row-parallel Gustavson driver serves every strategy; the per-row
// accumulation is a pluggable accumulator (accumulator.hpp):
//
//   * kGustavson — dense scratch of width ncols(B). Fastest when ncols(B)
//     is modest; impossible in the hypersparse regime (allocating O(ncols)
//     defeats O(nnz) storage).
//   * kHash      — flat open-addressing table; O(flops) independent of
//     dimension, mandatory when ncols(B) is huge.
//   * kSorted    — append + sort-fold; reference strategy, good for tiny rows.
//
// All strategies fold duplicates with S::add in encounter order, so their
// outputs are bit-identical and mxm() may pick freely (kAuto). kAuto sizes
// the choice to the launch: the dense scratch costs O(ncols(B)) to set up
// on every worker, so it is picked only when the launch's estimated flops
// pay for that set-up; smaller launches take the flat hash.
//
// Masked products are *fused*: mxm_masked_fused consults the mask during
// accumulation, doing O(kept) accumulator work instead of materializing the
// full product and filtering — the BFS complement-mask and §V-B row-mask
// fast path. Rows of A are processed independently on the unified parallel
// runtime (util/parallel.hpp), each producing its own sorted output slice,
// so results are deterministic for any thread count.

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

#include "semiring/concepts.hpp"
#include "sparse/accumulator.hpp"
#include "sparse/matrix.hpp"
#include "sparse/slices.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace hyperspace::sparse {

enum class MxmStrategy { kAuto, kGustavson, kHash, kSorted };

/// Dense accumulators wider than this fall back to hashing.
inline constexpr Index kMaxGustavsonWidth = Index{1} << 24;

/// kAuto's launch-size rule: dense scratch only when the launch's estimated
/// flops reach kAutoDenseFlopsPerColumn · ncols(B). Its set-up writes a
/// value and a stamp per column, on every worker that runs rows; below the
/// line the flat hash is faster (bm_auto_launch_size).
inline constexpr std::uint64_t kAutoDenseFlopsPerColumn = 4;

namespace detail {

/// Locate row `k` inside B's non-empty row list. For CSR operands the list
/// is the identity so this is O(1); for DCSR it is a binary search.
template <typename T>
inline std::ptrdiff_t find_row(const SparseView<T>& v, Index k, bool is_full) {
  // A full view still bounds-checks: a delta base whose key space GREW
  // advertises a logical shape larger than the stored view, so rows beyond
  // it are absent, not resolvable by direct index.
  if (is_full) {
    return k < static_cast<Index>(v.row_ids.size()) ? k : -1;
  }
  const auto it = std::lower_bound(v.row_ids.begin(), v.row_ids.end(), k);
  if (it == v.row_ids.end() || *it != k) return -1;
  return it - v.row_ids.begin();
}

/// The driver's B-operand: a plain SparseView plus an optional patched-row
/// overlay (sparse/delta.hpp). Rows listed in `orows` (sorted) REPLACE the
/// main row wholesale — they are the fully merged main⊕delta rows, so the
/// kernel accumulates exactly the entries a from-scratch rebuild would
/// hold, in the same order: delta serving is byte-identical by
/// construction, not by reconciliation. An overlay row may be empty,
/// shadowing a fully deleted main row. With no overlay (the default), the
/// row resolver degenerates to find_row — one branch on an empty span.
///
/// Row handles returned by find(): >= 0 is a main-view row index, -1 is
/// absent, <= -2 encodes overlay row (-h - 2).
template <typename T>
struct BaseView {
  SparseView<T> b{};
  bool b_full = false;
  Index nrows = 0;
  Index ncols = 0;
  std::span<const Index> orows{};
  std::span<const Index> optr{};  ///< size orows.size() + 1
  std::span<const Index> ocols{};
  std::span<const T> ovals{};

  BaseView() = default;
  explicit BaseView(const Matrix<T>& B)
      : b(B.view()), nrows(B.nrows()), ncols(B.ncols()) {
    b_full = b.n_nonempty_rows() == b.nrows;
  }

  bool patched() const { return !orows.empty(); }

  std::ptrdiff_t find(Index k) const {
    if (!orows.empty()) {
      const auto it = std::lower_bound(orows.begin(), orows.end(), k);
      if (it != orows.end() && *it == k) {
        return -2 - (it - orows.begin());
      }
    }
    return find_row(b, k, b_full);
  }

  std::span<const Index> row_cols(std::ptrdiff_t h) const {
    if (h <= -2) {
      const auto i = static_cast<std::size_t>(-2 - h);
      return ocols.subspan(static_cast<std::size_t>(optr[i]),
                           static_cast<std::size_t>(optr[i + 1] - optr[i]));
    }
    return b.row_cols(static_cast<std::size_t>(h));
  }

  std::span<const T> row_vals(std::ptrdiff_t h) const {
    if (h <= -2) {
      const auto i = static_cast<std::size_t>(-2 - h);
      return ovals.subspan(static_cast<std::size_t>(optr[i]),
                           static_cast<std::size_t>(optr[i + 1] - optr[i]));
    }
    return b.row_vals(static_cast<std::size_t>(h));
  }

  /// Stored entries of logical row k (0 when absent) — the serving
  /// layer's exact flop accounting against a patched base.
  std::size_t row_nnz(Index k) const {
    const auto h = find(k);
    return h == -1 ? 0 : row_cols(h).size();
  }
};

/// The one SpGEMM inner loop. Each row of A resolves its B-rows once
/// (cached in scratch so the flop count for reserve() sizing costs no
/// second lookup), probes the mask policy per product, and folds survivors
/// into the accumulator. Per-row kept/skipped counts are summed with
/// relaxed atomic adds — integer addition commutes, so the totals are
/// exact and identical for every thread count. Returns the per-row output
/// slices (sorted by row) rather than a matrix, so callers that scatter
/// rows elsewhere — the batched serving engine splits one product into K
/// per-query results — skip a stacked-matrix round trip.
///
/// The Carry policy (default: none) seeds each row's accumulator with a
/// prior partial result BEFORE any product folds, making this launch
/// continue that partial's flat left fold — the sharded serving gather
/// (serve/router.hpp) chains launches over an ordered row partition of B
/// this way and stays bit-identical to one unsharded launch. Carry entries
/// are never mask-probed and add no flops.
template <semiring::Semiring S, typename MakeAcc, typename Mask,
          typename Carry = detail::NoCarry>
std::vector<detail::RowSlice<typename S::value_type>> mxm_rows(
    const Matrix<typename S::value_type>& A,
    const BaseView<typename S::value_type>& bv, MakeAcc&& make_acc,
    const Mask& mask, MxmMaskStats* stats, const Carry& carry = {}) {
  using T = typename S::value_type;
  if (A.ncols() != bv.nrows) {
    throw std::invalid_argument("mxm: inner dimension mismatch");
  }
  const SparseView<T> a = A.view();
  const auto b_ncols = static_cast<std::size_t>(bv.ncols);

  const auto n_arows = a.row_ids.size();
  std::vector<detail::RowSlice<T>> rows(n_arows);
  std::atomic<std::uint64_t> kept{0}, skipped{0};
  // Sampled once outside the loop: one flag read per launch, and every row
  // of the launch agrees on whether to count.
  const bool telemetry = util::metrics::enabled();

  struct Scratch {
    decltype(make_acc()) acc;
    std::vector<std::ptrdiff_t> b_rows;  ///< resolved B-row per A-row entry
    typename Mask::Scratch mask;         ///< e.g. the bitmap-probe scratch
  };
  util::parallel_for_scratch(
      0, static_cast<std::ptrdiff_t>(n_arows), 16,
      [&make_acc] { return Scratch{make_acc(), {}, {}}; },
      [&](std::ptrdiff_t ri, Scratch& s) {
        auto& out = rows[static_cast<std::size_t>(ri)];
        out.row = a.row_ids[static_cast<std::size_t>(ri)];
        const auto acols = a.row_cols(static_cast<std::size_t>(ri));
        const auto avals = a.row_vals(static_cast<std::size_t>(ri));

        // Resolve B rows once (overlay-aware); the sum of their lengths is
        // this row's flops.
        s.b_rows.clear();
        s.b_rows.reserve(acols.size());
        std::size_t row_flops = 0;
        for (const Index k : acols) {
          const auto bk = bv.find(k);
          s.b_rows.push_back(bk);
          if (bk != -1) {
            row_flops += bv.row_cols(bk).size();
          }
        }
        [[maybe_unused]] typename Carry::Row crow{};
        bool has_carry = false;
        if constexpr (Carry::kCarry) {
          crow = carry.row(out.row);
          has_carry = !crow.empty();
        }
        if (row_flops == 0 && !has_carry) return;

        const auto mrow = mask.row(out.row, row_flops, s.mask);
        if constexpr (Mask::kMasked) {
          if (mrow.all_blocked()) {
            // A blocked row emits nothing; its carry — produced under the
            // same mask — is empty by construction.
            skipped.fetch_add(row_flops, std::memory_order_relaxed);
            return;
          }
        }

        auto& acc = s.acc;
        acc.begin_row();
        // Distinct output columns are bounded by both the row's flops and
        // B's column count — the tight reserve that stops hypersparse rows
        // paying rehash/allocation churn.
        std::size_t expected = std::min(row_flops, b_ncols);
        if constexpr (Carry::kCarry) expected += crow.cols.size();
        acc.reserve(expected);
        if constexpr (Carry::kCarry) {
          // Seed the prior partial first: first-encounter inserts make it
          // the accumulator's initial value, so the products below CONTINUE
          // its fold rather than regrouping it.
          for (std::size_t j = 0; j < crow.cols.size(); ++j) {
            acc.accumulate(crow.cols[j], crow.vals[j]);
          }
        }

        std::uint64_t row_kept = 0, row_skipped = 0;
        for (std::size_t p = 0; p < acols.size(); ++p) {
          const auto bk = s.b_rows[p];
          if (bk == -1) continue;
          const auto bcols = bv.row_cols(bk);
          const auto bvals = bv.row_vals(bk);
          for (std::size_t q = 0; q < bcols.size(); ++q) {
            if constexpr (Mask::kMasked) {
              if (!mrow.all_allowed() && !mrow.allowed(bcols[q])) {
                ++row_skipped;
                continue;
              }
              ++row_kept;
            }
            acc.accumulate(bcols[q], S::mul(avals[p], bvals[q]));
          }
        }
        acc.extract_sorted(out.cols, out.vals);
        if constexpr (Mask::kMasked) {
          kept.fetch_add(row_kept, std::memory_order_relaxed);
          skipped.fetch_add(row_skipped, std::memory_order_relaxed);
        } else if (stats || telemetry) {
          // Unmasked rows accumulate every product, so flops_kept means
          // the same thing with or without a mask policy — which keeps
          // batch-level flop accounting (ServeStats) independent of how
          // admission happened to group masked and unmasked queries.
          kept.fetch_add(row_flops, std::memory_order_relaxed);
        }
      },
      // Cost hint for the steal scheduler's tiler: the A-row extent (free
      // from the row pointers) is the flop-count proxy, so a hub row tiles
      // alone instead of dragging its neighbours. Steers tiling only —
      // results are bit-identical with or without it.
      [&a](std::ptrdiff_t ri) -> std::uint64_t {
        return a.row_cols(static_cast<std::size_t>(ri)).size() + 1;
      });

  if (stats) {
    stats->flops_kept += kept.load();
    stats->flops_skipped += skipped.load();
  }
  if (telemetry) {
    // Exact kernel-level flop accounting: relaxed-atomic sums commute, so
    // these are identical for any thread count (Stability::kInvariant).
    namespace hm = util::metrics;
    static auto& c_rows = hm::Registry::instance().counter(
        "mxm.rows", hm::Stability::kInvariant);
    static auto& c_kept = hm::Registry::instance().counter(
        "mxm.flops_kept", hm::Stability::kInvariant);
    static auto& c_skipped = hm::Registry::instance().counter(
        "mxm.flops_skipped", hm::Stability::kInvariant);
    c_rows.add(n_arows);
    c_kept.add(kept.load());
    c_skipped.add(skipped.load());
  }
  return rows;
}

/// mxm_rows + canonical assembly: the shape every plain product returns.
template <semiring::Semiring S, typename MakeAcc, typename Mask>
Matrix<typename S::value_type> mxm_driver(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B, MakeAcc&& make_acc,
    const Mask& mask, MxmMaskStats* stats) {
  const BaseView<typename S::value_type> bv(B);
  auto rows = mxm_rows<S>(A, bv, std::forward<MakeAcc>(make_acc), mask, stats);
  const auto triples = detail::splice_row_slices(rows);
  return Matrix<typename S::value_type>::from_canonical_triples(
      A.nrows(), B.ncols(), triples, S::zero());
}

/// kAuto's pick for A ⊕.⊗ B. The flop estimate, nnz(A) × the mean length
/// of B's stored rows, is O(1) and ignores the thread count, so the pick
/// (and the invariant mxm.launches.* counters) does too. It changes time,
/// never bytes: every accumulator folds in encounter order.
template <typename T>
MxmStrategy auto_strategy(const Matrix<T>& A, const BaseView<T>& bv) {
  if (bv.ncols > kMaxGustavsonWidth) return MxmStrategy::kHash;
  const auto b_rows = static_cast<double>(bv.b.row_ids.size());
  const double mean_b_row =
      b_rows > 0 ? static_cast<double>(bv.b.nnz()) / b_rows : 0.0;
  const double est_flops = static_cast<double>(A.view().nnz()) * mean_b_row;
  return est_flops >= static_cast<double>(kAutoDenseFlopsPerColumn) *
                          static_cast<double>(bv.ncols)
             ? MxmStrategy::kGustavson
             : MxmStrategy::kHash;
}

/// Strategy switch over mxm_rows; kAuto resolves by launch size
/// (auto_strategy).
template <semiring::Semiring S, typename Mask,
          typename Carry = detail::NoCarry>
std::vector<detail::RowSlice<typename S::value_type>> mxm_dispatch_rows(
    const Matrix<typename S::value_type>& A,
    const BaseView<typename S::value_type>& bv, MxmStrategy strategy,
    const Mask& mask, MxmMaskStats* stats, const Carry& carry = {}) {
  if (strategy == MxmStrategy::kAuto) strategy = auto_strategy(A, bv);
  const bool telemetry = util::metrics::enabled();
  if (telemetry) {
    // Which accumulator actually ran (post-kAuto resolution) is a shape
    // decision — invariant; the launch wall time below is not.
    namespace hm = util::metrics;
    static auto& c_launches = hm::Registry::instance().counter(
        "mxm.launches", hm::Stability::kInvariant);
    static auto& c_gustavson = hm::Registry::instance().counter(
        "mxm.launches.gustavson", hm::Stability::kInvariant);
    static auto& c_hash = hm::Registry::instance().counter(
        "mxm.launches.hash", hm::Stability::kInvariant);
    static auto& c_sorted = hm::Registry::instance().counter(
        "mxm.launches.sorted", hm::Stability::kInvariant);
    c_launches.inc();
    (strategy == MxmStrategy::kGustavson
         ? c_gustavson
         : strategy == MxmStrategy::kSorted ? c_sorted : c_hash)
        .inc();
  }
  const std::uint64_t t0 = telemetry ? util::metrics::clock_ns() : 0;
  std::vector<detail::RowSlice<typename S::value_type>> rows;
  switch (strategy) {
    case MxmStrategy::kGustavson:
      if (bv.ncols > kMaxGustavsonWidth) {
        throw std::length_error("mxm_gustavson: accumulator too wide");
      }
      rows = mxm_rows<S>(
          A, bv, [w = bv.ncols] { return DenseAccumulator<S>(w); }, mask,
          stats, carry);
      break;
    case MxmStrategy::kSorted:
      rows = mxm_rows<S>(
          A, bv, [] { return SortedMergeAccumulator<S>{}; }, mask, stats,
          carry);
      break;
    default:
      rows = mxm_rows<S>(
          A, bv, [] { return FlatHashAccumulator<S>{}; }, mask, stats, carry);
      break;
  }
  if (telemetry) {
    namespace hm = util::metrics;
    static auto& h_launch = hm::Registry::instance().histogram(
        "mxm.launch_ns");
    h_launch.record(util::metrics::clock_ns() - t0);
  }
  return rows;
}

template <semiring::Semiring S, typename Mask,
          typename Carry = detail::NoCarry>
std::vector<detail::RowSlice<typename S::value_type>> mxm_dispatch_rows(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B, MxmStrategy strategy,
    const Mask& mask, MxmMaskStats* stats, const Carry& carry = {}) {
  const BaseView<typename S::value_type> bv(B);
  return mxm_dispatch_rows<S>(A, bv, strategy, mask, stats, carry);
}

/// Dispatch a (possibly masked) product to the accumulator the strategy
/// names and assemble the canonical result matrix. (No carry here: a carry
/// can hold rows absent from A, which need the caller-side merge the serve
/// layer performs — see serve::detail::run_stacked.)
template <semiring::Semiring S, typename Mask>
Matrix<typename S::value_type> mxm_dispatch(
    const Matrix<typename S::value_type>& A,
    const BaseView<typename S::value_type>& bv, MxmStrategy strategy,
    const Mask& mask, MxmMaskStats* stats) {
  using T = typename S::value_type;
  auto rows = mxm_dispatch_rows<S>(A, bv, strategy, mask, stats);
  const auto triples = detail::splice_row_slices(rows);
  return Matrix<T>::from_canonical_triples(A.nrows(), bv.ncols, triples,
                                           S::zero());
}

template <semiring::Semiring S, typename Mask>
Matrix<typename S::value_type> mxm_dispatch(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B, MxmStrategy strategy,
    const Mask& mask, MxmMaskStats* stats) {
  const BaseView<typename S::value_type> bv(B);
  return mxm_dispatch<S>(A, bv, strategy, mask, stats);
}

}  // namespace detail

/// Gustavson-style SpGEMM. Requires ncols(B) small enough for a dense
/// accumulator; throws std::length_error otherwise.
template <semiring::Semiring S>
Matrix<typename S::value_type> mxm_gustavson(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B) {
  return detail::mxm_dispatch<S>(A, B, MxmStrategy::kGustavson,
                                 detail::NoMask{}, nullptr);
}

/// Flat-hash SpGEMM. O(flops) memory, dimension-independent — the only
/// viable strategy when B's column space is hypersparse-huge.
template <semiring::Semiring S>
Matrix<typename S::value_type> mxm_hash(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B) {
  return detail::mxm_dispatch<S>(A, B, MxmStrategy::kHash, detail::NoMask{},
                                 nullptr);
}

/// Sorted-merge SpGEMM (append, sort, fold). Reference strategy.
template <semiring::Semiring S>
Matrix<typename S::value_type> mxm_sorted(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B) {
  return detail::mxm_dispatch<S>(A, B, MxmStrategy::kSorted, detail::NoMask{},
                                 nullptr);
}

/// The pre-refactor std::unordered_map accumulator, kept as the referee for
/// flat-hash equivalence tests and the BENCH_spgemm.json baseline row.
template <semiring::Semiring S>
Matrix<typename S::value_type> mxm_hash_baseline(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B) {
  return detail::mxm_driver<S>(
      A, B, [] { return StdMapAccumulator<S>{}; }, detail::NoMask{}, nullptr);
}

/// C = A ⊕.⊗ B with automatic strategy selection.
template <semiring::Semiring S>
Matrix<typename S::value_type> mxm(const Matrix<typename S::value_type>& A,
                                   const Matrix<typename S::value_type>& B,
                                   MxmStrategy strategy = MxmStrategy::kAuto) {
  return detail::mxm_dispatch<S>(A, B, strategy, detail::NoMask{}, nullptr);
}

/// C⟨M⟩ = A ⊕.⊗ B with the structural mask fused into accumulation: a
/// product lands in the accumulator only if its output position survives the
/// mask, so the work is O(kept flops), not O(produced). Bit-identical to
/// compute-then-filter (each output column either wholly passes or wholly
/// fails the mask, and survivors fold in the same encounter order).
template <semiring::Semiring S, typename U>
Matrix<typename S::value_type> mxm_masked_fused(
    const Matrix<typename S::value_type>& A,
    const Matrix<typename S::value_type>& B, const Matrix<U>& M,
    MaskDesc desc = {}, MxmMaskStats* stats = nullptr,
    MxmStrategy strategy = MxmStrategy::kAuto) {
  if (M.nrows() != A.nrows() || M.ncols() != B.ncols()) {
    throw std::invalid_argument("mxm_masked: mask shape mismatch");
  }
  const detail::StructuralMask<U> mask{M.view(), desc};
  return detail::mxm_dispatch<S>(A, B, strategy, mask, stats);
}

}  // namespace hyperspace::sparse

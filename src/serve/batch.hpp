#pragma once
// Batched query serving — row-stacked coalescing of concurrent queries.
//
// A kernel library answers one query per launch: every mtimes pays region
// spin-up, per-thread scratch construction, and mask setup alone. This
// header coalesces K concurrent queries against a shared base matrix B
// into ONE masked SpGEMM (run_batch):
//
//   stack   — per-query left operands concatenate into disjoint row ranges
//             (sparse::concat_blocks), so the batch is a single operand
//             whose row blocks ARE the queries;
//   mask    — each row block probes its own query's mask view under its
//             own sense/probe (sparse::detail::MultiMask), so plain-masked,
//             complement-masked, and unmasked queries share one fused
//             launch and no mask entry is copied;
//   scatter — per-query results assemble straight from the kernel's row
//             slices (detail::run_stacked).
//
// Every entry point serves one base: a caller with several bases makes one
// run_batch call (or runs one serving engine) per base.
//
// Determinism contract: the driver computes each stacked row with exactly
// the accumulation the per-query kernel would run (same B rows, same mask
// row, same encounter order), and each result is rebuilt through the same
// canonical-triple path — so batched results are bit-identical to
// per-query execution at any thread count, for every semiring and
// strategy. tests/test_serve.cpp enforces this.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "semiring/concepts.hpp"
#include "sparse/block_diag.hpp"
#include "sparse/delta.hpp"
#include "sparse/masked.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mxm.hpp"
#include "util/parallel.hpp"

namespace hyperspace::serve {

/// Coalescing accounting. All counters are exact and thread-count
/// invariant (the flop counts aggregate the kernel's deterministic
/// MxmMaskStats). flops_kept counts every product that reached an
/// accumulator — unmasked queries' (and unmasked batches') flops included
/// — so the totals are also independent of how admission happened to
/// slice masked and unmasked queries into batches.
struct ServeStats {
  std::uint64_t queries = 0;          ///< queries executed
  std::uint64_t batches = 0;          ///< coalesced batches flushed
  std::uint64_t kernel_launches = 0;  ///< parallel products actually run
  std::uint64_t launches_saved = 0;   ///< queries − kernel_launches
  std::uint64_t rows_coalesced = 0;   ///< stacked rows across all batches
  std::uint64_t flops_kept = 0;       ///< products that ran
  std::uint64_t flops_skipped = 0;    ///< products the masks dropped
  std::uint64_t mutations = 0;        ///< mutation batches applied
  /// Highest base epoch any batch in this row was served at (0 = every
  /// batch ran against pristine, never-mutated bases).
  std::uint64_t epoch = 0;

  ServeStats& operator+=(const ServeStats& o) {
    queries += o.queries;
    batches += o.batches;
    kernel_launches += o.kernel_launches;
    launches_saved += o.launches_saved;
    rows_coalesced += o.rows_coalesced;
    flops_kept += o.flops_kept;
    flops_skipped += o.flops_skipped;
    mutations += o.mutations;
    epoch = std::max(epoch, o.epoch);
    return *this;
  }
};

enum class QueryKind : unsigned char { kMtimes, kMtimesMasked, kSelect };

/// One pending query against a shared base matrix B (n × c).
template <semiring::Semiring S>
struct Query {
  using T = typename S::value_type;

  QueryKind kind = QueryKind::kMtimes;
  sparse::Matrix<T> lhs;                  ///< m_q × n
  std::optional<sparse::Matrix<T>> mask;  ///< m_q × c output mask
  sparse::MaskDesc desc{};
  /// Fold carry (m_q × c): a partial result from an earlier launch over a
  /// PREFIX of the inner dimension. It seeds every row's accumulator before
  /// any product folds, so this launch continues the carry's flat left fold
  /// — the sharded router's gather chains shard launches through this field
  /// and stays bit-identical to one unsharded launch (floats included).
  /// Carry entries are never mask-probed and add no flops to the stats.
  std::optional<sparse::Matrix<T>> carry;
  /// Life-of-a-query trace id (serve/trace.hpp). 0 = untraced. The router
  /// draws one from Tracer::sample() at submit when the caller left it 0
  /// and propagates it into every per-shard sub-query. Purely
  /// observational — results are bit-identical for any value.
  std::uint64_t trace = 0;
  /// Opt this query out of the serve-layer result cache (serve/cache.hpp):
  /// it neither probes nor installs. Queries carrying a fold seed
  /// (`carry`) are never cached regardless of this flag — a carry makes
  /// the answer depend on state outside the (epoch, operands) key.
  bool no_cache = false;

  /// Analytic query: the full product C_q = lhs ⊕.⊗ B.
  static Query analytic(sparse::Matrix<T> a) {
    if (a.ncols() <= 0) {
      throw std::invalid_argument("Query::analytic: lhs has no columns");
    }
    return {QueryKind::kMtimes, std::move(a), std::nullopt, {}};
  }

  /// Masked query: C_q⟨M⟩ = lhs ⊕.⊗ B with a per-query fused output mask.
  /// The mask's sense (keep / complement, value vs structural probe) rides
  /// in `d`. Validated here — mask height must match the lhs — instead of
  /// deep inside run_batch.
  static Query masked(sparse::Matrix<T> a, sparse::Matrix<T> m,
                      sparse::MaskDesc d = {}) {
    if (a.ncols() <= 0) {
      throw std::invalid_argument("Query::masked: lhs has no columns");
    }
    if (m.nrows() != a.nrows()) {
      throw std::invalid_argument("Query::masked: mask height mismatch");
    }
    return {QueryKind::kMtimesMasked, std::move(a), std::move(m), d};
  }

  /// Point lookup: the single base row `key`, as a 1-row selector product
  /// — coalesces with every other query kind.
  static Query point(sparse::Index key, sparse::Index base_nrows) {
    if (key < 0 || key >= base_nrows) {
      throw std::invalid_argument("Query::point: key out of range");
    }
    return select({key}, base_nrows);
  }

  /// Row-extraction query: result row i = base row rows[i]. Compiles to an
  /// analytic product whose lhs is a selector (one S::one() per requested
  /// row). Keys are validated at construction.
  static Query select(const std::vector<sparse::Index>& rows,
                      sparse::Index base_nrows) {
    std::vector<sparse::Triple<T>> t;
    t.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] < 0 || rows[i] >= base_nrows) {
        throw std::invalid_argument("Query::select: row key out of range");
      }
      t.push_back({static_cast<sparse::Index>(i), rows[i], S::one()});
    }
    return {QueryKind::kSelect,
            sparse::Matrix<T>::from_unique_triples(
                static_cast<sparse::Index>(rows.size()), base_nrows,
                std::move(t), S::zero()),
            std::nullopt,
            {}};
  }
};

namespace detail {

template <semiring::Semiring S>
void validate_query(sparse::Index base_nrows, sparse::Index base_ncols,
                    const Query<S>& q) {
  if (q.lhs.ncols() != base_nrows) {
    throw std::invalid_argument("serve: query inner dimension mismatch");
  }
  if (q.mask && (q.mask->nrows() != q.lhs.nrows() ||
                 q.mask->ncols() != base_ncols)) {
    throw std::invalid_argument("serve: query mask shape mismatch");
  }
  if (q.carry && (q.carry->nrows() != q.lhs.nrows() ||
                  q.carry->ncols() != base_ncols)) {
    throw std::invalid_argument("serve: query carry shape mismatch");
  }
}

/// The coalesced core behind run_batch (and run_single's seeded path): run
/// the stacked operand against B under the per-query zero-copy mask
/// policy, then scatter per-query results straight from the driver's row
/// slices. Each row is computed with exactly the accumulation the
/// per-query kernel would run and assembled through the same
/// canonical-triple path, so every result is bit-identical to
/// run_single's — the one copy of the serving determinism contract.
template <semiring::Semiring S>
std::vector<sparse::Matrix<typename S::value_type>> run_stacked(
    const sparse::Matrix<typename S::value_type>& stacked,
    const sparse::detail::BaseView<typename S::value_type>& B,
    std::span<const Query<S>* const> queries,
    std::span<const sparse::Index> offsets, sparse::MxmStrategy strategy,
    sparse::MxmMaskStats* ms) {
  using T = typename S::value_type;
  bool any_mask = false;
  bool any_carry = false;
  for (const auto* q : queries) {
    any_mask |= q->mask.has_value();
    any_carry |= q->carry.has_value();
  }

  // Zero-copy carry path: each query block seeds its rows from its own
  // carry view (the shard chain's fold continuation), addressed in local
  // row space. Queries without a carry keep the default (empty) view — no
  // seed.
  std::vector<sparse::SparseView<T>> cviews;
  sparse::detail::MultiCarry<T> cpolicy;
  if (any_carry) {
    cviews.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i]->carry) cviews[i] = queries[i]->carry->view();
    }
    cpolicy = {cviews, offsets};
  }

  std::vector<sparse::detail::RowSlice<T>> rows;
  if (!any_mask) {
    const sparse::detail::NoMask nomask{};
    rows = any_carry
               ? sparse::detail::mxm_dispatch_rows<S>(stacked, B, strategy,
                                                      nomask, ms, cpolicy)
               : sparse::detail::mxm_dispatch_rows<S>(stacked, B, strategy,
                                                      nomask, ms);
  } else {
    // Zero-copy mask path: each query block probes its own mask view in
    // local row coordinates; unmasked blocks get an empty view under a
    // complement sense (absent ⇒ all allowed). No mask entry is copied.
    std::vector<sparse::SparseView<T>> mviews(queries.size());
    std::vector<sparse::MaskDesc> descs(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i]->mask) {
        descs[i] = queries[i]->desc;
        mviews[i] = queries[i]->mask->view();
      } else {
        descs[i] = {.complement = true};
      }
    }
    const sparse::detail::MultiMask<T> policy{mviews, offsets, descs};
    rows = any_carry
               ? sparse::detail::mxm_dispatch_rows<S>(stacked, B, strategy,
                                                      policy, ms, cpolicy)
               : sparse::detail::mxm_dispatch_rows<S>(stacked, B, strategy,
                                                      policy, ms);
  }

  // Scatter: slices are sorted by stacked row, so query q owns the
  // contiguous run in [offsets[q], offsets[q+1]); rows rebase by the
  // query's block offset. Carry rows whose lhs row the driver never
  // visited (no lhs entries in this launch) pass through verbatim — rows
  // the driver DID visit already contain their carry via the in-kernel
  // seed. The cost hint (rows per query) runs a small batch's scatter
  // inline instead of waking the pool.
  const auto nq = static_cast<std::ptrdiff_t>(queries.size());
  std::vector<sparse::Matrix<T>> results(queries.size());
  util::parallel_for(0, nq, 1, [&](std::ptrdiff_t q) {
    const auto qi = static_cast<std::size_t>(q);
    const sparse::Index lo = offsets[qi];
    const sparse::Index hi = offsets[qi + 1];
    const auto first = std::lower_bound(
        rows.begin(), rows.end(), lo,
        [](const auto& r, sparse::Index v) { return r.row < v; });
    const auto last = std::lower_bound(
        first, rows.end(), hi,
        [](const auto& r, sparse::Index v) { return r.row < v; });
    const sparse::SparseView<T>* cv =
        any_carry && queries[qi]->carry ? &cviews[qi] : nullptr;
    std::size_t total = 0;
    for (auto it = first; it != last; ++it) total += it->cols.size();
    if (cv) total += static_cast<std::size_t>(cv->nnz());  // upper bound
    std::vector<sparse::Triple<T>> t;
    t.reserve(total);
    std::size_t ci = 0;  // next unmerged carry row
    const auto emit_carry_row = [&](std::size_t ri) {
      const auto rc = cv->row_cols(ri);
      const auto rv = cv->row_vals(ri);
      for (std::size_t j = 0; j < rc.size(); ++j) {
        t.push_back({cv->row_ids[ri], rc[j], rv[j]});
      }
    };
    for (auto it = first; it != last; ++it) {
      const sparse::Index local = it->row - lo;
      if (cv) {
        while (ci < cv->row_ids.size() && cv->row_ids[ci] < local) {
          emit_carry_row(ci);
          ++ci;
        }
        // The driver seeded this row's carry in-kernel; don't re-emit.
        if (ci < cv->row_ids.size() && cv->row_ids[ci] == local) ++ci;
      }
      for (std::size_t j = 0; j < it->cols.size(); ++j) {
        t.push_back({local, it->cols[j], std::move(it->vals[j])});
      }
    }
    if (cv) {
      for (; ci < cv->row_ids.size(); ++ci) emit_carry_row(ci);
    }
    results[qi] = sparse::Matrix<T>::from_canonical_triples(hi - lo, B.ncols,
                                                            t, S::zero());
  }, [&offsets](std::ptrdiff_t q) -> std::uint64_t {
    const auto qi = static_cast<std::size_t>(q);
    return static_cast<std::uint64_t>(offsets[qi + 1] - offsets[qi]);
  });
  return results;
}

}  // namespace detail

/// Reference single-query execution — exactly what a batch must reproduce.
/// The BaseView overload is the core; a delta snapshot's patched rows and
/// a plain matrix serve through identical code.
template <semiring::Semiring S>
sparse::Matrix<typename S::value_type> run_single(
    const sparse::detail::BaseView<typename S::value_type>& base,
    const Query<S>& q,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    sparse::MxmMaskStats* ms = nullptr) {
  detail::validate_query<S>(base.nrows, base.ncols, q);
  if (q.carry) {
    // Seeded product — the shard chain's merge step: the carry continues
    // its fold through this launch. One query, no stacking: the lhs is its
    // own "stacked" operand; the shared core handles seed + pass-through.
    const Query<S>* qp = &q;
    const std::vector<sparse::Index> offsets{0, q.lhs.nrows()};
    auto rs = detail::run_stacked<S>(q.lhs, base, std::span(&qp, 1), offsets,
                                     strategy, ms);
    return std::move(rs.front());
  }
  if (q.mask) {
    // The fused masked product (sparse::mxm_masked), routed through the
    // view-aware dispatch so patched rows are consulted.
    const sparse::detail::StructuralMask<typename S::value_type> mask{
        q.mask->view(), q.desc};
    return sparse::detail::mxm_dispatch<S>(q.lhs, base, strategy, mask, ms);
  }
  // Thread the stats through even unmasked: flops_kept counts every
  // product that reached an accumulator, so a batch of one reports the
  // same flops its query would contribute to any larger batch.
  return sparse::detail::mxm_dispatch<S>(q.lhs, base, strategy,
                                         sparse::detail::NoMask{}, ms);
}

template <semiring::Semiring S>
sparse::Matrix<typename S::value_type> run_single(
    const sparse::Matrix<typename S::value_type>& base, const Query<S>& q,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    sparse::MxmMaskStats* ms = nullptr) {
  const sparse::detail::BaseView<typename S::value_type> bv(base);
  return run_single<S>(bv, q, strategy, ms);
}

template <semiring::Semiring S>
sparse::Matrix<typename S::value_type> run_single(
    const sparse::DeltaSnapshot<typename S::value_type>& snap,
    const Query<S>& q,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    sparse::MxmMaskStats* ms = nullptr) {
  return run_single<S>(snap.base_view(), q, strategy, ms);
}

/// Execute every query against `base` as one coalesced launch; results are
/// returned in submission order, each bit-identical to run_single's. The
/// BaseView span-of-pointers overload is the core — callers that route a
/// larger query list (db::planned_batch via the array layer) coalesce a
/// subset without copying any operand, and a delta snapshot's patched base
/// (DeltaSnapshot::base_view — a shard worker's flush path) serves through
/// the identical path.
template <semiring::Semiring S>
std::vector<sparse::Matrix<typename S::value_type>> run_batch(
    const sparse::detail::BaseView<typename S::value_type>& base,
    std::span<const Query<S>* const> queries,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    ServeStats* stats = nullptr) {
  using T = typename S::value_type;
  if (queries.empty()) return {};
  for (const auto* q : queries) {
    detail::validate_query<S>(base.nrows, base.ncols, *q);
  }

  std::vector<sparse::Index> offsets(queries.size() + 1, 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    offsets[i + 1] = offsets[i] + queries[i]->lhs.nrows();
  }

  sparse::MxmMaskStats ms;
  std::vector<sparse::Matrix<T>> results;
  if (queries.size() == 1) {
    // A batch of one skips the stack/scatter copies.
    results.push_back(run_single(base, *queries.front(), strategy, &ms));
  } else {
    std::vector<sparse::Block<T>> ablocks;
    ablocks.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ablocks.push_back({&queries[i]->lhs, offsets[i], 0});
    }
    const auto stacked = sparse::concat_blocks(offsets.back(), base.nrows,
                                               std::move(ablocks), S::zero());
    // Run the ONE coalesced product and scatter per-query results straight
    // from the driver's row slices — no stacked result matrix is ever
    // materialized or re-split (detail::run_stacked).
    results = detail::run_stacked<S>(stacked, base, queries, offsets,
                                     strategy, &ms);
  }

  if (stats) {
    stats->queries += queries.size();
    stats->batches += 1;
    stats->kernel_launches += 1;
    stats->launches_saved += queries.size() - 1;
    stats->rows_coalesced += static_cast<std::uint64_t>(offsets.back());
    stats->flops_kept += ms.flops_kept;
    stats->flops_skipped += ms.flops_skipped;
  }
  return results;
}

template <semiring::Semiring S>
std::vector<sparse::Matrix<typename S::value_type>> run_batch(
    const sparse::Matrix<typename S::value_type>& base,
    std::span<const Query<S>* const> queries,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    ServeStats* stats = nullptr) {
  const sparse::detail::BaseView<typename S::value_type> bv(base);
  return run_batch<S>(bv, queries, strategy, stats);
}

template <semiring::Semiring S>
std::vector<sparse::Matrix<typename S::value_type>> run_batch(
    const sparse::Matrix<typename S::value_type>& base,
    const std::vector<Query<S>>& queries,
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto,
    ServeStats* stats = nullptr) {
  std::vector<const Query<S>*> ptrs;
  ptrs.reserve(queries.size());
  for (const auto& q : queries) ptrs.push_back(&q);
  return run_batch<S>(base, ptrs, strategy, stats);
}

}  // namespace hyperspace::serve

#pragma once
// Query planning with §IV annihilation conditions.
//
// "Intersection ∩ distributing over union ∪ is essential to database query
//  planning and parallel query execution" (§V-B) — and the §IV key-overlap
//  conditions give a planner license to skip whole products: if
//  row(A) ∩ row(B) = ∅ (etc.), the result is 0 and need not be computed.
//
// The planner here evaluates composite expressions over associative arrays
// with those prechecks, recording how much work was skipped. Its batch
// planner (planned_batch) serves K queries against one base array.

#include <cstdint>
#include <cstddef>
#include <vector>

#include "array/assoc_array.hpp"
#include "array/batch.hpp"
#include "semilink/identities.hpp"

namespace hyperspace::db {

struct PlanStats {
  int products_evaluated = 0;
  int products_skipped = 0;   ///< skipped via §IV annihilation
  int mults_evaluated = 0;
  int mults_skipped = 0;
  // Fused-mask accounting (planned_mtimes_masked / planned_batch): per-flop
  // kept/skipped counts reported by the masked multiply kernel.
  std::uint64_t mask_flops_kept = 0;
  std::uint64_t mask_flops_skipped = 0;
  // Batched-serving accounting (planned_batch).
  int batches = 0;            ///< coalesced launches issued
  int queries_batched = 0;    ///< queries served inside a coalesced batch
  int queries_fallback = 0;   ///< queries routed to per-query execution
};

/// A ⊕.⊗ B with the inner-key precheck: col(A) ∩ row(B) = ∅ ⇒ 0.
template <semiring::Semiring S>
array::AssocArray<S> planned_mtimes(const array::AssocArray<S>& a,
                                    const array::AssocArray<S>& b,
                                    PlanStats* stats = nullptr) {
  if (array::disjoint(a.col(), b.row())) {
    if (stats) ++stats->products_skipped;
    return array::AssocArray<S>();
  }
  if (stats) ++stats->products_evaluated;
  return array::mtimes(a, b);
}

/// C⟨M⟩ = A ⊕.⊗ B with mask pushdown: beyond the §IV inner-key precheck,
/// an output mask provably annihilating every output position (empty mask,
/// plain sense — the degenerate |…|₀ ∩ A of §V-B) skips the product
/// entirely; otherwise the mask is fused into accumulation and the kernel's
/// per-flop kept/skipped counts land in the stats.
template <semiring::Semiring S, semiring::Semiring SM>
array::AssocArray<S> planned_mtimes_masked(const array::AssocArray<S>& a,
                                           const array::AssocArray<S>& b,
                                           const array::AssocArray<SM>& mask,
                                           sparse::MaskDesc desc = {},
                                           PlanStats* stats = nullptr) {
  if (array::disjoint(a.col(), b.row())) {
    if (stats) ++stats->products_skipped;
    return array::AssocArray<S>();
  }
  if (!desc.complement &&
      (mask.empty() || array::disjoint(a.row(), mask.row()) ||
       array::disjoint(b.col(), mask.col()))) {
    if (stats) ++stats->products_skipped;
    return array::AssocArray<S>();
  }
  if (stats) ++stats->products_evaluated;
  sparse::MxmMaskStats ms;
  auto result = array::mtimes_masked(a, b, mask, desc, &ms);
  if (stats) {
    stats->mask_flops_kept += ms.flops_kept;
    stats->mask_flops_skipped += ms.flops_skipped;
  }
  return result;
}

/// A ⊗ B with the pattern precheck: disjoint rows or columns ⇒ 0.
template <semiring::Semiring S>
array::AssocArray<S> planned_mult(const array::AssocArray<S>& a,
                                  const array::AssocArray<S>& b,
                                  PlanStats* stats = nullptr) {
  if (array::disjoint(a.row(), b.row()) || array::disjoint(a.col(), b.col())) {
    if (stats) ++stats->mults_skipped;
    return array::AssocArray<S>();
  }
  if (stats) ++stats->mults_evaluated;
  return array::mult(a, b);
}

/// A ⊗ (B ⊕.⊗ C) with the full §IV form-1 precheck.
template <semiring::Semiring S>
array::AssocArray<S> planned_mult_of_product(const array::AssocArray<S>& a,
                                             const array::AssocArray<S>& b,
                                             const array::AssocArray<S>& c,
                                             PlanStats* stats = nullptr) {
  if (array::disjoint(a.row(), b.row()) ||
      array::disjoint(a.col(), c.col()) ||
      array::disjoint(b.col(), c.row())) {
    if (stats) {
      ++stats->mults_skipped;
      ++stats->products_skipped;
    }
    return array::AssocArray<S>();
  }
  return planned_mult(a, planned_mtimes(b, c, stats), stats);
}

/// Serve K concurrent queries against one base array — the §V-B "parallel
/// query execution" story batched. Each query gets the same §IV inner-key
/// and §V-B mask-annihilation prechecks as planned_mtimes(_masked), in that
/// order (an annihilated query's result stays the empty array and counts
/// as a skipped product); the survivors split two ways:
///
///   * batchable (inner alignment = the base's row key space, see
///     array::batchable) — coalesced into ONE mtimes_batched launch
///     through serve::run_batch, after every fallback has run;
///   * incompatible key spaces — per-query planned fallback, in query
///     order. (Semiring compatibility is the template parameter: queries
///     over different semirings cannot share a batch by construction.)
///
/// Results are returned in query order, entry-identical to running each
/// query through planned_mtimes(_masked) alone.
template <semiring::Semiring S>
std::vector<array::AssocArray<S>> planned_batch(
    const array::AssocArray<S>& base,
    const std::vector<array::BatchQuery<S>>& queries,
    PlanStats* stats = nullptr, serve::ServeStats* serve_stats = nullptr) {
  std::vector<array::AssocArray<S>> out(queries.size());
  std::vector<std::size_t> coalesce;
  // Pointers, not copies: the coalesced subset is consulted in place.
  std::vector<const array::BatchQuery<S>*> group;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const array::BatchQuery<S>& q = queries[i];
    // §IV inner-key annihilation: col(lhs) ∩ row(base) = ∅ ⇒ 0.
    if (array::disjoint(q.lhs.col(), base.row())) {
      if (stats) ++stats->products_skipped;
      continue;
    }
    // §V-B mask annihilation (plain sense): a provably-empty output mask
    // skips the product entirely.
    if (q.mask && !q.desc.complement &&
        (q.mask->empty() || array::disjoint(q.lhs.row(), q.mask->row()) ||
         array::disjoint(base.col(), q.mask->col()))) {
      if (stats) ++stats->products_skipped;
      continue;
    }
    if (array::batchable(base, q)) {
      coalesce.push_back(i);
      group.push_back(&q);
      continue;
    }
    out[i] = q.mask ? planned_mtimes_masked(q.lhs, base, *q.mask, q.desc,
                                            stats)
                    : planned_mtimes(q.lhs, base, stats);
    if (stats) ++stats->queries_fallback;
  }
  if (coalesce.empty()) return out;
  serve::ServeStats ss;
  auto rs = array::mtimes_batched<S>(base, group, &ss);
  for (std::size_t k = 0; k < coalesce.size(); ++k) {
    out[coalesce[k]] = std::move(rs[k]);
  }
  if (stats) {
    stats->batches += static_cast<int>(ss.kernel_launches);
    stats->queries_batched += static_cast<int>(coalesce.size());
    stats->products_evaluated += static_cast<int>(coalesce.size());
    stats->mask_flops_kept += ss.flops_kept;
    stats->mask_flops_skipped += ss.flops_skipped;
  }
  if (serve_stats) *serve_stats += ss;
  return out;
}

/// Chain product A1 ⊕.⊗ A2 ⊕.⊗ ... with early exit: the first disjoint
/// inner key space annihilates the whole chain (associativity, Table II).
template <semiring::Semiring S>
array::AssocArray<S> planned_chain(
    const std::vector<array::AssocArray<S>>& factors,
    PlanStats* stats = nullptr) {
  if (factors.empty()) return array::AssocArray<S>();
  for (std::size_t i = 0; i + 1 < factors.size(); ++i) {
    if (array::disjoint(factors[i].col(), factors[i + 1].row())) {
      // The precheck runs before any product, so every link is skipped.
      if (stats) {
        stats->products_skipped += static_cast<int>(factors.size()) - 1;
      }
      return array::AssocArray<S>();
    }
  }
  auto acc = factors.front();
  for (std::size_t i = 1; i < factors.size(); ++i) {
    acc = planned_mtimes(acc, factors[i], stats);
    if (acc.empty()) break;  // sparsity can still annihilate mid-chain
  }
  return acc;
}

}  // namespace hyperspace::db

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
// planners (planned_batch, planned_sharded_batch) each serve one base array
// through one route-and-fallback loop (detail::route_batch).

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "array/assoc_array.hpp"
#include "array/batch.hpp"
#include "array/shard.hpp"
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
  // Sharded-serving accounting (planned_sharded_batch): how the shard map
  // scattered the coalesced survivors. shard_subqueries < queries ×
  // n_shards is the shard-level §IV win — sub-queries never issued because
  // a query's key range provably misses those shards.
  int queries_single_shard = 0;  ///< served entirely by one shard
  int queries_straddling = 0;    ///< scattered across ≥ 2 shards
  int shard_subqueries = 0;      ///< per-shard sub-queries actually issued
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

namespace detail {

enum class BatchRoute { kAnnihilated, kCoalesce, kFallback };

/// The one copy of the batch routers' per-query precheck: §IV inner-key
/// annihilation, §V-B mask annihilation (plain sense), then the key-space
/// batchability split. Annihilated queries count as skipped products.
template <semiring::Semiring S>
BatchRoute route_batch_query(const array::AssocArray<S>& base,
                             const array::BatchQuery<S>& q,
                             PlanStats* stats) {
  // §IV inner-key annihilation: col(lhs) ∩ row(base) = ∅ ⇒ 0.
  if (array::disjoint(q.lhs.col(), base.row())) {
    if (stats) ++stats->products_skipped;
    return BatchRoute::kAnnihilated;
  }
  // §V-B mask annihilation (plain sense): a provably-empty output mask
  // skips the product entirely.
  if (q.mask && !q.desc.complement &&
      (q.mask->empty() || array::disjoint(q.lhs.row(), q.mask->row()) ||
       array::disjoint(base.col(), q.mask->col()))) {
    if (stats) ++stats->products_skipped;
    return BatchRoute::kAnnihilated;
  }
  return array::batchable(base, q) ? BatchRoute::kCoalesce
                                   : BatchRoute::kFallback;
}

/// What a batch planner's launch step hands back for the coalesced group.
template <semiring::Semiring S>
struct Coalesced {
  std::vector<array::AssocArray<S>> results;  ///< one per coalesced query
  int launches = 0;                           ///< counts as PlanStats::batches
  serve::ServeStats serve;                    ///< the launches' accounting
};

/// The one route-and-fallback loop behind both batch planners. Every query
/// takes route_batch_query's prechecks against `base`: an annihilated
/// query's result stays the empty array, exactly as planned_mtimes returns
/// it; a fallback runs planned, per query, right here; the coalescible
/// survivors go to `launch(idx)` as one group (indices ascending), whose
/// results land back in query order. The coalesced-group PlanStats
/// accounting lives here, once.
template <semiring::Semiring S, typename Launch>
std::vector<array::AssocArray<S>> route_batch(
    const array::AssocArray<S>& base,
    const std::vector<array::BatchQuery<S>>& queries, Launch&& launch,
    PlanStats* stats, serve::ServeStats* serve_stats) {
  std::vector<array::AssocArray<S>> out(queries.size());
  std::vector<std::size_t> coalesce;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const array::BatchQuery<S>& q = queries[i];
    switch (route_batch_query(base, q, stats)) {
      case BatchRoute::kAnnihilated:
        break;
      case BatchRoute::kCoalesce:
        coalesce.push_back(i);
        break;
      case BatchRoute::kFallback:
        out[i] = q.mask ? planned_mtimes_masked(q.lhs, base, *q.mask, q.desc,
                                                stats)
                        : planned_mtimes(q.lhs, base, stats);
        if (stats) ++stats->queries_fallback;
        break;
    }
  }
  if (coalesce.empty()) return out;
  Coalesced<S> c = launch(coalesce);
  for (std::size_t k = 0; k < coalesce.size(); ++k) {
    out[coalesce[k]] = std::move(c.results[k]);
  }
  if (stats) {
    stats->batches += c.launches;
    stats->queries_batched += static_cast<int>(coalesce.size());
    stats->products_evaluated += static_cast<int>(coalesce.size());
    stats->mask_flops_kept += c.serve.flops_kept;
    stats->mask_flops_skipped += c.serve.flops_skipped;
  }
  if (serve_stats) *serve_stats += c.serve;
  return out;
}

}  // namespace detail

/// Serve K concurrent queries against one base array — the §V-B "parallel
/// query execution" story batched. Each query gets the same §IV inner-key
/// and §V-B mask-annihilation prechecks as planned_mtimes(_masked); the
/// survivors split two ways:
///
///   * batchable (inner alignment = the base's row key space, see
///     array::batchable) — coalesced into ONE launch through
///     serve::run_batch;
///   * incompatible key spaces — per-query planned fallback. (Semiring
///     compatibility is the template parameter: queries over different
///     semirings cannot share a batch by construction.)
///
/// Results are returned in query order, entry-identical to running each
/// query through planned_mtimes(_masked) alone.
template <semiring::Semiring S>
std::vector<array::AssocArray<S>> planned_batch(
    const array::AssocArray<S>& base,
    const std::vector<array::BatchQuery<S>>& queries,
    PlanStats* stats = nullptr, serve::ServeStats* serve_stats = nullptr) {
  return detail::route_batch<S>(
      base, queries,
      [&](const std::vector<std::size_t>& idx) {
        // Pointers, not copies: the coalesced subset is consulted in place.
        std::vector<const array::BatchQuery<S>*> group;
        group.reserve(idx.size());
        for (const auto i : idx) group.push_back(&queries[i]);
        detail::Coalesced<S> c;
        c.results = array::mtimes_batched<S>(base, group, &c.serve);
        c.launches = static_cast<int>(c.serve.kernel_launches);
        return c;
      },
      stats, serve_stats);
}

/// Shard-aware planned serving: K concurrent queries against one base held
/// by an N-shard ShardedServer. Every query gets the same §IV inner-key
/// and §V-B mask-annihilation prechecks as planned_batch; the survivors
/// split the same two ways (batchable → the sharded router, incompatible
/// key spaces → per-query planned fallback against `base`). On the sharded
/// path the key-space precheck extends to the SHARD level: the scatter
/// routes a query only to the shards its inner key range actually touches,
/// so disjoint shards never see a sub-query — the per-shard §IV
/// annihilation, visible as shard_subqueries in the stats. The coalesced
/// group counts as one batch (one router flush). Results are
/// entry-identical to planned_batch against the unsharded base.
///
/// `base` must be the array `server` was built from (same key spaces); it
/// is needed here for the per-query fallback path.
template <semiring::Semiring S>
std::vector<array::AssocArray<S>> planned_sharded_batch(
    const array::AssocArray<S>& base, array::ShardedServer<S>& server,
    const std::vector<array::BatchQuery<S>>& queries,
    PlanStats* stats = nullptr, serve::ServeStats* serve_stats = nullptr) {
  if (server.row_keys() != base.row_keys() ||
      server.col_keys() != base.col_keys()) {
    throw std::invalid_argument(
        "planned_sharded_batch: server/base key spaces differ");
  }
  return detail::route_batch<S>(
      base, queries,
      [&](const std::vector<std::size_t>& idx) {
        const auto before = server.router_stats();
        const auto sbefore = server.stats();
        std::vector<std::size_t> tickets;
        tickets.reserve(idx.size());
        for (const auto i : idx) tickets.push_back(server.submit(queries[i]));
        server.flush();
        detail::Coalesced<S> c;
        c.results.reserve(idx.size());
        for (const auto t : tickets) c.results.push_back(server.wait(t));
        const auto after = server.router_stats();
        const auto safter = server.stats();
        c.launches = 1;
        // Only this call's delta: the server may be long-lived.
        c.serve.queries = safter.queries - sbefore.queries;
        c.serve.batches = safter.batches - sbefore.batches;
        c.serve.kernel_launches =
            safter.kernel_launches - sbefore.kernel_launches;
        c.serve.launches_saved = safter.launches_saved - sbefore.launches_saved;
        c.serve.rows_coalesced = safter.rows_coalesced - sbefore.rows_coalesced;
        c.serve.flops_kept = safter.flops_kept - sbefore.flops_kept;
        c.serve.flops_skipped = safter.flops_skipped - sbefore.flops_skipped;
        if (stats) {
          stats->queries_single_shard +=
              static_cast<int>(after.single_shard - before.single_shard);
          stats->queries_straddling +=
              static_cast<int>(after.straddling - before.straddling);
          stats->shard_subqueries +=
              static_cast<int>(after.stage_submits - before.stage_submits);
        }
        return c;
      },
      stats, serve_stats);
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

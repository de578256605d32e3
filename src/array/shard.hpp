#pragma once
// Shard-aware associative-array serving — the key-space face of the
// sharded router (serve/router.hpp).
//
// At the array layer a shard is a KEY range: the base's sorted row keys
// map 1:1 onto matrix rows, so partitioning rows [cuts[s], cuts[s+1])
// partitions the row key space into N contiguous key ranges. The
// obligation unique to this layer is the same one array::mtimes_batched
// carries: mtimes aligns inner key spaces by set-union, so a query joins
// the sharded path only when that alignment IS the base's own row key
// space (batchable: col_keys(lhs) ⊆ row_keys(base)). ShardedServer
// performs that realignment ONCE per query, at the router — shard
// executors never see a key, only matrices already in shard-local
// coordinates — and queries that fail the condition belong to the
// planner's per-query fallback (db::planned_sharded_batch).

#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "array/batch.hpp"
#include "serve/router.hpp"
#include "util/metrics.hpp"

namespace hyperspace::array {

/// One key-addressed mutation: assign (insert-or-update) or erase at
/// (row key, col key). The keys must already exist in the base's key
/// sets — live mutation changes VALUES under fixed key spaces; growing a
/// key space is a rebuild (ROADMAP).
template <typename T>
struct KeyUpdate {
  Key row;
  Key col;
  T val{};
  bool erase = false;
};

/// A sharded serving front end over one base array: serve::Router plus the
/// key spaces needed to realign queries on the way in and label results on
/// the way out. Results are entry-identical to mtimes / mtimes_masked
/// against the unsharded base for any shard count.
template <semiring::Semiring S>
class ShardedServer {
  using T = typename S::value_type;

 public:
  ShardedServer(const AssocArray<S>& base,
                typename serve::Router<S>::Config cfg = {})
      : rows_(base.row_keys()),
        cols_(base.col_keys()),
        router_(base.matrix(), cfg) {}

  const KeySet& row_keys() const { return rows_; }
  const KeySet& col_keys() const { return cols_; }
  std::size_t n_shards() const { return router_.n_shards(); }
  serve::Router<S>& router() { return router_; }
  const serve::Router<S>& router() const { return router_; }

  /// Can this query ride the sharded path? Same condition as
  /// array::batchable: inner alignment must be the base's own row keys.
  bool batchable(const BatchQuery<S>& q) const {
    return key_union(q.lhs.col_keys(), rows_) == rows_;
  }

  /// Realign the query into base coordinates — exactly as per-query mtimes
  /// would — and scatter it to the shard(s) its key range touches. Returns
  /// the router ticket.
  std::size_t submit(serve::TenantId tenant, const BatchQuery<S>& q) {
    const bool telemetry = util::metrics::enabled();
    const std::uint64_t t0 = telemetry ? util::metrics::clock_ns() : 0;
    auto sq = detail::realign_query(rows_, cols_, q);
    if (telemetry) {
      // The key→coordinate realignment is the one per-query cost unique
      // to this layer; its time distribution says whether the sharded key
      // path is realign-bound or kernel-bound.
      static auto& submits = util::metrics::Registry::instance().counter(
          "array.sharded.submits", util::metrics::Stability::kInvariant);
      static auto& realign_ns = util::metrics::Registry::instance().histogram(
          "array.realign_ns");
      submits.inc();
      realign_ns.record(util::metrics::clock_ns() - t0);
    }
    std::lock_guard lock(mu_);
    const std::size_t ticket = router_.submit(tenant, std::move(sq));
    if (ticket >= row_keys_of_.size()) row_keys_of_.resize(ticket + 1);
    row_keys_of_[ticket] = q.lhs.row_keys();
    return ticket;
  }

  std::size_t submit(const BatchQuery<S>& q) { return submit(0, q); }

  /// Key-aligned live mutation: translate each (row key, col key) through
  /// the base's key sets and forward the batch to the router, which
  /// scatters every update to the shard owning its row. In-order,
  /// last-write-per-key-wins, and served results at the new epoch are
  /// entry-identical to rebuilding the array from scratch with these
  /// writes applied. Unknown keys throw before anything is applied.
  std::uint64_t mutate(serve::TenantId tenant,
                       const std::vector<KeyUpdate<T>>& ops) {
    sparse::UpdateBatch<T> mops;
    mops.reserve(ops.size());
    for (const auto& u : ops) {
      const auto r = rows_.find(u.row);
      const auto c = cols_.find(u.col);
      if (!r || !c) {
        throw std::out_of_range(
            "ShardedServer: mutation key outside the base key space");
      }
      mops.push_back({static_cast<sparse::Index>(*r),
                      static_cast<sparse::Index>(*c), u.val, u.erase});
    }
    return router_.mutate(tenant, mops);
  }
  std::uint64_t mutate(const std::vector<KeyUpdate<T>>& ops) {
    return mutate(serve::TenantId{0}, ops);
  }
  /// The router-level epoch (logical mutation batches accepted).
  std::uint64_t epoch() const { return router_.epoch(); }

  /// Block for the chain's final result and wrap it back into key space.
  AssocArray<S> wait(std::size_t ticket) {
    const auto& m = router_.wait(ticket);
    std::lock_guard lock(mu_);
    return AssocArray<S>(row_keys_of_.at(ticket), cols_, m);
  }

  void flush() { router_.flush(); }
  serve::ServeStats stats() const { return router_.stats(); }
  serve::RouterStats router_stats() const { return router_.router_stats(); }

 private:
  KeySet rows_;
  KeySet cols_;
  serve::Router<S> router_;
  mutable std::mutex mu_;             ///< ticket → row-key bookkeeping
  std::deque<KeySet> row_keys_of_;    ///< result row keys per ticket
};

/// One-shot convenience: run every query against `base` through an
/// N-shard router and return results in submission order, each
/// entry-identical to mtimes / mtimes_masked run alone. All queries must
/// be batchable (the planner routes the rest). A long-lived server should
/// construct ShardedServer once instead — this pays the shard split per
/// call.
template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_sharded(
    const AssocArray<S>& base, const std::vector<BatchQuery<S>>& queries,
    typename serve::Router<S>::Config cfg = {},
    serve::ServeStats* stats = nullptr,
    serve::RouterStats* router_stats = nullptr) {
  ShardedServer<S> server(base, cfg);
  std::vector<std::size_t> tickets;
  tickets.reserve(queries.size());
  for (const auto& q : queries) tickets.push_back(server.submit(q));
  server.flush();
  std::vector<AssocArray<S>> out;
  out.reserve(queries.size());
  for (const auto t : tickets) out.push_back(server.wait(t));
  if (stats) *stats += server.stats();
  if (router_stats) *router_stats = server.router_stats();
  return out;
}

}  // namespace hyperspace::array

#pragma once
// Router — the serving engine: the one serve::Service implementation.
//
// Every caller serves through a Router over N ≥ 1 row shards. The stack
// has three explicit layers:
//
//   ShardMap   (shard_map.hpp)  — partitions ONE logical base into N
//     contiguous row-range shards, each a standalone base; owns the
//     local↔global translation and the lhs column-split scatter.
//   Router     (this header)    — implements serve::Service (submit /
//     mutate / wait / poll / flush / shutdown / stats). It validates each
//     query, samples its trace id, probes the result cache and counts the
//     logical queries and mutation batches, once. It then consults the
//     shard map to scatter each query to the shard(s) its key space
//     touches — and each mutation to the shard owning its row — and fans
//     out to per-shard Executor workers (executor.hpp), each with its own
//     queue, flush thread, admission budget and TenantStats. Key
//     realignment happens ONCE here (ShardMap::scatter); shard workers
//     only ever see operands in their own local coordinates.
//   Gather                      — merges per-shard partials back into one
//     per-query result via a deterministic shard-order fold: stage s+1's
//     launch is SEEDED with stage s's partial (Query::carry), so the
//     accumulator continues the same flat left fold the unsharded kernel
//     runs over the full inner dimension. That makes sharded execution
//     bit-identical to the 1-shard engine for every semiring, strategy,
//     and thread count — floats included — because the fold is never
//     regrouped, only resumed. (An ⊕-merge of independently folded
//     partials would regroup the fold tree and drift in the last ulp.)
//
// Queries touching a single shard — the common point-lookup shape — are
// pure pass-through: one sub-query, no carry, no merge step, resolved
// entirely by that shard's worker (its background flush thread included).
// Straddling queries form a CHAIN of sub-queries, one per touched shard in
// ascending shard order; the chain advances when wait()/poll()/flush()
// observes a settled stage and submits the next one with the partial as
// its carry. Chains across DIFFERENT queries proceed concurrently. The
// router indexes only the chains that still have a non-final stage to
// advance, so flush() and shutdown() cost O(in flight), not O(history).
//
// With one shard the map moves the base through untouched, every query is
// single-shard pass-through, and every flushed batch is one run_batch
// launch on that shard's worker: the unsharded engine is the 1-shard
// Router, not a separate code path.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "serve/shard_map.hpp"
#include "serve/trace.hpp"

namespace hyperspace::serve {

/// Router-level accounting: logical queries and how the scatter split
/// them. Per-shard ServeStats/TenantStats live in the shard workers
/// (a straddling query counts once per touched shard there).
struct RouterStats {
  std::uint64_t queries = 0;        ///< logical queries submitted
  std::uint64_t single_shard = 0;   ///< resolved by one shard, no merge
  std::uint64_t straddling = 0;     ///< scattered across ≥ 2 shards
  std::uint64_t stage_submits = 0;  ///< sub-queries handed to shard workers
  std::uint64_t merges = 0;         ///< carry folds (straddle stages ≥ 1)
  std::uint64_t mutations = 0;      ///< logical mutation batches accepted
  std::uint64_t epoch = 0;          ///< router-level epoch (= mutations)
  /// Result-cache split (serve/cache.hpp). A hit never scatters, so it
  /// counts in queries but in neither single_shard nor straddling.
  std::uint64_t cache_hits = 0;    ///< logical queries answered from cache
  std::uint64_t cache_misses = 0;  ///< cacheable probes that fell through
};

template <semiring::Semiring S>
class Router : public Service<S> {
  using T = typename S::value_type;

 public:
  struct Config {
    /// Per-shard worker config; its cache_bytes / cache_negative size the
    /// Router's result cache.
    typename Executor<S>::Config executor{};
    int n_shards = 1;
    /// Explicit row cuts (size N+1, 0 → nrows); overrides n_shards.
    std::vector<sparse::Index> cuts;
  };

  explicit Router(sparse::Matrix<T> base, Config cfg = {})
      : Router(cfg.cuts.empty()
                   ? ShardMap<T>::split(std::move(base), cfg.n_shards)
                   : ShardMap<T>::with_cuts(std::move(base), cfg.cuts),
               cfg) {}

  Router(ShardMap<T> map, Config cfg = {})
      : map_(std::move(map)),
        cfg_(cfg),
        cache_({cfg.executor.cache_bytes, cfg.executor.cache_negative}) {
    execs_.reserve(map_.n_shards());
    for (std::size_t s = 0; s < map_.n_shards(); ++s) {
      execs_.push_back(
          std::make_unique<Executor<S>>(map_.take_shard(s), cfg_.executor, s));
    }
  }

  ~Router() { shutdown(); }
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::size_t n_shards() const { return execs_.size(); }
  const ShardMap<T>& map() const { return map_; }
  const Config& config() const { return cfg_; }
  /// Shard s's worker (its base() is the shard in LOCAL row space).
  const Executor<S>& shard_executor(std::size_t s) const {
    return *execs_.at(s);
  }

  /// Scatter `q` and enqueue its per-shard chain; returns the router-level
  /// ticket redeemable via wait()/poll(). Shape mismatches throw here, at
  /// admission. The lhs split — the only key realignment in the whole
  /// sharded path — happens now, once.
  std::size_t submit(TenantId tenant, Query<S> q) override {
    detail::validate_query<S>(map_.nrows(), map_.ncols(), q);
    // The router is the one sampling point: one trace id covers the
    // logical query, and every sub-query inherits it.
    auto& tracer = trace::Tracer::instance();
    if (q.trace == 0) q.trace = tracer.sample();
    // Result-cache probe, keyed on the router-level epoch (the count of
    // logical mutation batches — coarser than the shard workers' epochs:
    // ANY mutation invalidates, because the router cannot see which
    // shards a cached answer depended on). The cache lives only here, over
    // gathered final answers, so chain stages never touch it. A hit
    // settles the chain before it exists: no scatter, no sub-queries, no
    // merge. A mutate() racing this submit may serve the pre-mutation
    // epoch — the same outcome as the query settling just before the
    // mutation, admissible under the epoch contract.
    std::optional<typename ResultCache<S>::Key> ckey;
    if (cache_.enabled() && ResultCache<S>::cacheable(q)) {
      trace::ScopedSpan probe_span(trace::Stage::kCacheProbe, q.trace,
                                   q.trace != 0);
      std::uint64_t cur;
      {
        std::lock_guard lock(rmu_);
        cur = rstats_.epoch;
      }
      auto key = ResultCache<S>::make_key(
          cur, 0, q, static_cast<unsigned char>(cfg_.executor.strategy));
      auto hit =
          cache_.probe(key, [cur](const auto& k) { return k.epoch != cur; });
      probe_span.args(hit ? 1 : 0, hit ? hit->bytes : 0);
      if (hit) {
        std::lock_guard lock(rmu_);
        if (stopping_) {
          throw std::runtime_error("Router: submit after shutdown");
        }
        const std::size_t ticket = chains_.size();
        Chain hc;
        hc.trace = q.trace;
        hc.tenant = tenant;
        hc.cached = std::move(hit->value);
        chains_.push_back(std::move(hc));
        ++rstats_.queries;
        ++rstats_.cache_hits;
        auto& ts = rtstats_[tenant];
        ++ts.cache_hits;
        ts.cache_bytes += hit->bytes;
        return ticket;
      }
      ckey = std::move(key);  // install when the gathered answer settles
    }
    Chain c;
    c.trace = q.trace;
    c.start_ns = q.trace != 0 ? tracer.now_ns() : 0;
    trace::ScopedSpan scatter_span(trace::Stage::kScatter, q.trace,
                                   q.trace != 0);
    if (map_.n_shards() == 1) {
      // 1-shard pass-through: the lhs moves through unsplit, uncopied,
      // untranslated.
      c.shards.push_back(0);
      c.lhs.push_back(std::move(q.lhs));
    } else {
      auto sc = map_.scatter(q.lhs);
      if (sc.shards.empty()) {
        // No shard touched (all-empty lhs): route an empty sub-operand to
        // shard 0 so the query flows the uniform path — with a carry, the
        // kernel passes it through; without one the result is empty.
        sc.shards.push_back(0);
        sc.lhs.emplace_back(q.lhs.nrows(), map_.height(0), S::zero());
      }
      c.shards = std::move(sc.shards);
      c.lhs = std::move(sc.lhs);
    }
    c.mask = std::move(q.mask);
    c.desc = q.desc;
    c.tenant = tenant;
    c.ckey = std::move(ckey);
    scatter_span.args(c.shards.size(), c.lhs.empty() ? 0 : c.lhs[0].nrows());
    scatter_span.finish();  // the split is done; queueing is not scatter
    std::lock_guard lock(rmu_);
    if (stopping_) {
      throw std::runtime_error("Router: submit after shutdown");
    }
    const std::size_t ticket = chains_.size();
    chains_.push_back(std::move(c));
    ++rstats_.queries;
    if (chains_.back().ckey) {
      ++rstats_.cache_misses;
      ++rtstats_[tenant].cache_misses;
    }
    if (chains_.back().shards.size() > 1) {
      ++rstats_.straddling;
      live_.insert(ticket);
    } else {
      ++rstats_.single_shard;
    }
    submit_stage_locked(chains_.back(), std::move(q.carry));
    return ticket;
  }

  using Service<S>::submit;  // submit(q) → anonymous tenant

  /// Apply `ops` to the logical base: scatter each update to the shard
  /// owning its row (ShardMap::scatter_updates — local row r − cuts[s],
  /// columns untouched) and forward every non-empty slice to that shard
  /// worker's delta base. Every key is checked against the logical shape
  /// first: a batch holding any out-of-range key throws std::out_of_range
  /// and applies nothing on any shard. Returns the router-level epoch: the
  /// count of logical mutation batches accepted, which advances — and is
  /// counted in stats().mutations and tenant_stats().mutations — once per
  /// call regardless of how many shards the batch straddled. Known
  /// limitation: a straddling chain in flight can observe MIXED epochs if
  /// a mutation lands between its stages — quiesce (flush) around
  /// mutations when chain-level epoch stability matters; epoch-pinned
  /// chains are a ROADMAP follow-on.
  std::uint64_t mutate(TenantId tenant,
                       const sparse::UpdateBatch<T>& ops) override {
    auto slices = map_.scatter_updates(ops);  // validates every key first
    {
      std::lock_guard lock(rmu_);
      if (stopping_) {
        throw std::runtime_error("Router: mutate after shutdown");
      }
    }
    for (std::size_t s = 0; s < slices.size(); ++s) {
      if (!slices[s].empty()) execs_[s]->mutate(slices[s]);
    }
    std::lock_guard lock(rmu_);
    ++rstats_.mutations;
    ++rtstats_[tenant].mutations;
    rstats_.epoch += 1;
    return rstats_.epoch;
  }
  using Service<S>::mutate;  // mutate(ops) → anonymous tenant

  /// The router-level epoch: logical mutation batches accepted so far.
  std::uint64_t epoch() const override {
    std::lock_guard lock(rmu_);
    return rstats_.epoch;
  }

  /// Block until the query's chain completes and return its final result.
  /// The reference lives in the LAST touched shard's worker and stays
  /// valid for the router's lifetime. Advances the chain stage by stage:
  /// each settled partial is folded forward as the next stage's carry.
  const sparse::Matrix<T>& wait(std::size_t ticket) override {
    for (;;) {
      Executor<S>* exec;
      std::size_t sticket;
      std::size_t stage;
      bool final_stage;
      {
        std::lock_guard lock(rmu_);
        Chain& ch = chain_at_locked(ticket);
        if (ch.cached) return *ch.cached;  // settled at submit by a hit
        exec = execs_[ch.shards[ch.stage]].get();
        sticket = ch.stage_ticket;
        stage = ch.stage;
        final_stage = ch.stage + 1 == ch.shards.size();
      }
      const auto& r = exec->wait(sticket);  // blocks outside the router lock
      std::lock_guard lock(rmu_);
      Chain& ch = chain_at_locked(ticket);
      if (ch.stage != stage) continue;  // another waiter advanced the chain
      if (final_stage) {
        record_gather_locked(ch);
        install_locked(ch, r);
        return r;
      }
      advance_locked(ticket, ch, r);  // the partial seeds the next shard
    }
  }

  /// Non-blocking probe: the settled final result, or nullptr while any
  /// stage is pending. Opportunistically advances the chain when the
  /// current stage has settled (submitting the next stage's sub-query),
  /// so background flush threads keep multi-shard chains moving between
  /// polls.
  const sparse::Matrix<T>* poll(std::size_t ticket) override {
    std::lock_guard lock(rmu_);
    Chain& ch = chain_at_locked(ticket);
    if (ch.cached) return &*ch.cached;  // settled at submit by a hit
    for (;;) {
      auto* exec = execs_[ch.shards[ch.stage]].get();
      const auto* r = exec->poll(ch.stage_ticket);
      if (r == nullptr) return nullptr;
      if (ch.stage + 1 == ch.shards.size()) {
        record_gather_locked(ch);
        install_locked(ch, *r);
        return r;
      }
      advance_locked(ticket, ch, *r);
    }
  }

  /// Drain everything on the calling thread: flush every shard worker
  /// and advance every live chain until all queues are empty and every
  /// chain is at its final, settled stage. Walks only the live-chain
  /// index, so an empty flush costs O(in flight), not O(queries served).
  void flush() override {
    for (;;) {
      for (auto& e : execs_) e->flush();
      bool advanced = false;
      {
        std::lock_guard lock(rmu_);
        for (auto it = live_.begin(); it != live_.end();) {
          const std::size_t ticket = *it++;  // advancing may erase it
          Chain& ch = chains_[ticket];
          while (ch.stage + 1 < ch.shards.size()) {
            const sparse::Matrix<T>* r = nullptr;
            try {
              r = execs_[ch.shards[ch.stage]]->poll(ch.stage_ticket);
            } catch (...) {
              // Failed stage: wait() rethrows it to the caller, and the
              // chain can never advance again.
              live_.erase(ticket);
              break;
            }
            if (r == nullptr) break;
            advance_locked(ticket, ch, *r);
            advanced = true;
          }
        }
      }
      if (!advanced) return;
    }
  }

  /// Retire every shard worker. With drain = true (default, and the
  /// destructor's behavior) all chains are driven to completion first;
  /// with drain = false unflushed sub-queries are dropped and their
  /// wait() throws.
  void shutdown(bool drain = true) override {
    {
      std::lock_guard lock(rmu_);
      if (stopping_) return;
      stopping_ = true;
    }
    if (drain) {
      // A failing batch routes its error to its tickets and leaves the
      // queue; retrying the drain terminates (as in Executor::shutdown).
      for (;;) {
        try {
          flush();
          break;
        } catch (...) {
        }
      }
    }
    for (auto& e : execs_) e->shutdown(drain);
  }

  /// Aggregate kernel-level accounting across the shard workers. Note:
  /// `queries` here counts SUB-queries (one per touched shard); the
  /// logical count is router_stats().queries. `mutations` counts logical
  /// batches, once each. The flop totals partition the 1-shard engine's
  /// exactly, for masked and unmasked traffic alike — every product is
  /// counted in exactly one stage (flops_kept counts every product that
  /// reaches an accumulator, mask or no mask) and the carry adds none.
  ServeStats stats() const override {
    ServeStats out;
    for (const auto& e : execs_) out += e->stats();
    std::lock_guard lock(rmu_);
    out.mutations = rstats_.mutations;
    return out;
  }

  RouterStats router_stats() const {
    std::lock_guard lock(rmu_);
    return rstats_;
  }

  /// Per-tenant execution accounting summed across shards (sub-query
  /// granularity), plus this router's own logical mutation count and
  /// cache hit/miss/bytes split — neither reaches a shard's TenantStats.
  TenantStats tenant_stats(TenantId tenant) const {
    TenantStats out;
    for (const auto& e : execs_) {
      const auto ts = e->tenant_stats(tenant);
      out.queries += ts.queries;
      out.rows += ts.rows;
      out.flops += ts.flops;
      out.batches += ts.batches;
      out.deferrals += ts.deferrals;
    }
    std::lock_guard lock(rmu_);
    const auto it = rtstats_.find(tenant);
    if (it != rtstats_.end()) {
      out.mutations = it->second.mutations;
      out.cache_hits = it->second.cache_hits;
      out.cache_misses = it->second.cache_misses;
      out.cache_bytes = it->second.cache_bytes;
    }
    return out;
  }

  /// Every tenant that has ever submitted or mutated, ascending, across
  /// all shards (cache-hit-only tenants included — they never reach a
  /// shard).
  std::vector<TenantId> tenants() const {
    std::map<TenantId, bool> seen;
    for (const auto& e : execs_) {
      for (const auto t : e->tenants()) seen[t] = true;
    }
    {
      std::lock_guard lock(rmu_);
      for (const auto& [t, _] : rtstats_) seen[t] = true;
    }
    std::vector<TenantId> out;
    out.reserve(seen.size());
    for (const auto& [t, _] : seen) out.push_back(t);
    return out;
  }

  /// Result-cache accounting (zeroes when the cache is disabled).
  typename ResultCache<S>::Stats cache_stats() const { return cache_.stats(); }

  /// Sub-queries queued but not yet admitted, across all shards.
  std::size_t pending() const override {
    std::size_t n = 0;
    for (const auto& e : execs_) n += e->pending();
    return n;
  }

 private:
  /// One scattered query: sub-lhs operands for the touched shards, run in
  /// ascending shard order with the partial folded forward as a carry.
  struct Chain {
    std::vector<std::size_t> shards;      ///< touched shards, ascending
    std::vector<sparse::Matrix<T>> lhs;   ///< per-stage sub-lhs (consumed)
    std::optional<sparse::Matrix<T>> mask;
    sparse::MaskDesc desc{};
    TenantId tenant = 0;
    std::size_t stage = 0;         ///< currently submitted stage
    std::size_t stage_ticket = 0;  ///< ticket within shards[stage]'s worker
    std::uint64_t trace = 0;       ///< sampled trace id (0 = untraced)
    std::uint64_t start_ns = 0;    ///< scatter time, anchors the gather span
    bool gathered = false;         ///< gather span recorded once per chain
    /// A cache hit settles the chain at submit: the answer lives here and
    /// no stage is ever submitted (shards/lhs stay empty).
    std::optional<sparse::Matrix<T>> cached;
    /// Probe key of a cacheable miss; the gathered final answer installs
    /// under it, once, unless a mutation moved the epoch meanwhile.
    std::optional<typename ResultCache<S>::Key> ckey;
    bool installed = false;        ///< install attempted (once per chain)
  };

  Chain& chain_at_locked(std::size_t ticket) {
    if (ticket >= chains_.size()) {
      throw std::out_of_range("Router: unknown ticket");
    }
    return chains_[ticket];
  }

  /// Install a settled final answer under the chain's probe key, once
  /// (rmu_ held). Skipped if a mutation moved the router epoch since the
  /// probe: the answer is correct for the submit-time epoch, but keying
  /// it under the current epoch would be wrong and under the old one
  /// useless. (A mutate() whose shard writes landed but whose epoch bump
  /// is still in flight can slip an old-keyed entry in — it can only be
  /// served to submits racing that same mutate, for which either epoch's
  /// answer is admissible, and it ages out of the LRU tail.)
  void install_locked(Chain& ch, const sparse::Matrix<T>& r) {
    if (!ch.ckey || ch.installed) return;
    ch.installed = true;
    if (rstats_.epoch != ch.ckey->epoch) return;
    cache_.install(*ch.ckey, r);
  }

  /// Record the chain-level gather span — scatter to observed completion —
  /// on the query's trace lane, once, when a straddling traced chain's
  /// final stage is first seen settled (rmu_ held). Single-shard chains
  /// skip it: there is nothing to gather.
  void record_gather_locked(Chain& ch) {
    if (ch.gathered || ch.trace == 0 || ch.shards.size() < 2) return;
    ch.gathered = true;
    auto& tracer = trace::Tracer::instance();
    if (!tracer.enabled()) return;
    const std::uint64_t now = tracer.now_ns();
    if (ch.start_ns == 0 || ch.start_ns > now) return;  // tracer reconfigured
    tracer.record(trace::Stage::kGather, ch.trace, trace::query_lane(ch.trace),
                  ch.start_ns, now - ch.start_ns, ch.shards.size(),
                  rstats_.merges);
  }

  /// Fold chain `ticket`'s settled partial `r` forward into its next stage
  /// (rmu_ held). Once the final stage is submitted the chain leaves the
  /// live index: only its last shard worker has work left for it.
  void advance_locked(std::size_t ticket, Chain& ch,
                      const sparse::Matrix<T>& r) {
    ch.stage += 1;
    ++rstats_.merges;
    submit_stage_locked(ch, r);
    if (ch.stage + 1 == ch.shards.size()) live_.erase(ticket);
  }

  /// Submit chain stage `ch.stage` to its shard worker (rmu_ held).
  /// `carry` is the previous stage's partial (or the caller's seed for
  /// stage 0); the mask rides along on every stage — output columns are
  /// not sharded, so it applies unchanged. Known cost: non-final stages
  /// deep-copy the mask and every merge copies its partial into the next
  /// stage's Query (queries own their operands by value). Straddle stages
  /// are O(partial) work anyway, so this is a constant factor, but a
  /// shared mask view across chain stages is a ROADMAP follow-on.
  template <typename CarryArg>
  void submit_stage_locked(Chain& ch, CarryArg&& carry) {
    Query<S> sq;
    sq.lhs = std::move(ch.lhs[ch.stage]);
    if (ch.mask) {
      sq.kind = QueryKind::kMtimesMasked;
      sq.desc = ch.desc;
      // The last stage may consume the mask; earlier stages copy it.
      if (ch.stage + 1 == ch.shards.size()) {
        sq.mask = std::move(ch.mask);
      } else {
        sq.mask = *ch.mask;
      }
    }
    if constexpr (std::is_same_v<std::decay_t<CarryArg>,
                                 std::optional<sparse::Matrix<T>>>) {
      sq.carry = std::forward<CarryArg>(carry);
    } else {
      sq.carry = carry;  // a settled partial: copied into the next stage
    }
    sq.trace = ch.trace;  // sub-queries inherit the logical query's trace
    if (ch.trace != 0 && ch.stage > 0) {
      // Instant carry marker on the query's lane: stage s's partial is
      // being folded forward into shard shards[stage]'s sub-query.
      auto& tracer = trace::Tracer::instance();
      if (tracer.enabled()) {
        tracer.record(trace::Stage::kChainCarry, ch.trace,
                      trace::query_lane(ch.trace), tracer.now_ns(), 0,
                      ch.stage, ch.shards[ch.stage]);
      }
    }
    ch.stage_ticket =
        execs_[ch.shards[ch.stage]]->submit(ch.tenant, std::move(sq));
    ++rstats_.stage_submits;
  }

  ShardMap<T> map_;
  Config cfg_;
  std::vector<std::unique_ptr<Executor<S>>> execs_;

  mutable std::mutex rmu_;     ///< chains + router stats + lifecycle
  std::deque<Chain> chains_;   ///< ticket-indexed
  /// Tickets of the chains with a non-final stage still to advance —
  /// what flush() walks. Single-shard and cache-hit chains never enter.
  std::set<std::size_t> live_;
  RouterStats rstats_;
  ResultCache<S> cache_;       ///< internally locked; off by default
  /// Router-level per-tenant accounting: logical mutation batches and the
  /// cache split, which never reach a shard worker's TenantStats. Only the
  /// mutations and cache_* fields are ever nonzero.
  std::map<TenantId, TenantStats> rtstats_;
  bool stopping_ = false;
};

}  // namespace hyperspace::serve

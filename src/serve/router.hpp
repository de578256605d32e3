#pragma once
// Router — the scatter-gather front end of the sharded serving stack.
//
// The stack has three explicit layers:
//
//   ShardMap   (shard_map.hpp)  — partitions ONE logical base into N
//     contiguous row-range shards, each a standalone base; owns the
//     local↔global translation and the lhs column-split scatter.
//   Router     (this header)    — implements serve::Service (submit /
//     mutate / wait / poll / flush / shutdown / stats), consults the
//     shard map to scatter each query to the shard(s) its key space
//     touches — and each mutation to the shard owning its row — and
//     fans out to per-shard Executor instances, each with
//     its own flush thread, admission budget, and TenantStats. Key
//     realignment happens ONCE here (ShardMap::scatter); shard executors
//     only ever see operands in their own local coordinates.
//   Gather                      — merges per-shard partials back into one
//     per-query result via a deterministic shard-order fold: stage s+1's
//     launch is SEEDED with stage s's partial (Query::carry), so the
//     accumulator continues the same flat left fold the unsharded kernel
//     runs over the full inner dimension. That makes sharded execution
//     bit-identical to the unsharded executor for every semiring,
//     strategy, and thread count — floats included — because the fold is
//     never regrouped, only resumed. (An ⊕-merge of independently folded
//     partials would regroup the fold tree and drift in the last ulp.)
//
// Queries touching a single shard — the common point-lookup shape — are
// pure pass-through: one sub-query, no carry, no merge step, resolved
// entirely by that shard's executor (its background flush thread included).
// Straddling queries form a CHAIN of sub-queries, one per touched shard in
// ascending shard order; the chain advances when wait()/poll()/flush()
// observes a settled stage and submits the next one with the partial as
// its carry. Chains across DIFFERENT queries proceed concurrently. The
// router indexes only the chains that still have a non-final stage to
// advance, so flush() and shutdown() cost O(in flight), not O(history).
//
// The 1-shard Router is the unsharded executor, verbatim: the map moves
// the base through untouched, every query is single-shard pass-through,
// and all launches run the same Executor/run_batch path (each shard
// executor owns one base, so every flushed batch is one launch) — the
// single-base Executor is the 1-shard instantiation of this stack, not a
// parallel code path.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "serve/shard_map.hpp"
#include "serve/trace.hpp"

namespace hyperspace::serve {

/// Router-level accounting: logical queries and how the scatter split
/// them. Per-shard ServeStats/TenantStats live in the shard executors
/// (a straddling query counts once per touched shard there).
struct RouterStats {
  std::uint64_t queries = 0;        ///< logical queries submitted
  std::uint64_t single_shard = 0;   ///< resolved by one shard, no merge
  std::uint64_t straddling = 0;     ///< scattered across ≥ 2 shards
  std::uint64_t stage_submits = 0;  ///< sub-queries handed to shard executors
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
    typename Executor<S>::Config executor{};  ///< per-shard executor config
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
    // Trace sampling happens ONCE, here at the router: shard executors
    // must not re-sample the sub-queries of an untraced logical query.
    // The result cache likewise lives ONCE, at the router, keyed on the
    // router-level epoch over the gathered final answer: shard-local
    // caches would key on shard epochs a logical query never observes, so
    // they are forced off — which is also what makes straddling chain
    // stages bypass the cache per-stage. Each shard executor gets its own
    // admission-gauge namespace so N shards export N distinct gauge sets.
    auto ecfg = cfg_.executor;
    ecfg.trace_sampling = false;
    ecfg.cache_bytes = 0;
    execs_.reserve(map_.n_shards());
    for (std::size_t s = 0; s < map_.n_shards(); ++s) {
      ecfg.gauge_scope = "shard" + std::to_string(s) + ".";
      execs_.push_back(
          std::make_unique<Executor<S>>(map_.take_shard(s), ecfg));
    }
  }

  ~Router() { shutdown(); }
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::size_t n_shards() const { return execs_.size(); }
  const ShardMap<T>& map() const { return map_; }
  const Config& config() const { return cfg_; }
  /// Shard s's executor (its base() is the shard in LOCAL row space).
  const Executor<S>& shard_executor(std::size_t s) const {
    return *execs_.at(s);
  }

  /// Scatter `q` and enqueue its per-shard chain; returns the router-level
  /// ticket redeemable via wait()/poll(). Shape mismatches throw here, at
  /// admission. The lhs split — the only key realignment in the whole
  /// sharded path — happens now, once.
  std::size_t submit(TenantId tenant, Query<S> q) override {
    detail::validate_query<S>(map_.nrows(), map_.ncols(), q);
    // The router is the sampling point for the whole sharded stack: one
    // trace id covers the logical query, and every sub-query inherits it
    // (shard executors run with trace_sampling off).
    auto& tracer = trace::Tracer::instance();
    if (q.trace == 0) q.trace = tracer.sample();
    // Result-cache probe, keyed on the router-level epoch (the count of
    // logical mutation batches — coarser than the shard executors'
    // epochs: ANY mutation invalidates, because the router cannot see
    // which shards a cached answer depended on). A hit settles the chain
    // before it exists: no scatter, no sub-queries, no merge.
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
      // 1-shard pass-through: the executor path verbatim — the lhs moves
      // through unsplit, uncopied, untranslated.
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

  std::size_t submit(Query<S> q) { return submit(0, std::move(q)); }

  /// Apply `ops` to the logical base: scatter each update to the shard
  /// owning its row (ShardMap::scatter_updates — local row r − cuts[s],
  /// columns untouched) and forward every non-empty slice to that shard
  /// executor's delta base. Returns the router-level epoch: the count of
  /// logical mutation batches accepted, which advances once per call
  /// regardless of how many shards the batch straddled. Known limitation:
  /// a straddling chain in flight can observe MIXED epochs if a mutation
  /// lands between its stages — quiesce (flush) around mutations when
  /// chain-level epoch stability matters; epoch-pinned chains are a
  /// ROADMAP follow-on.
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
      if (!slices[s].empty()) {
        execs_[s]->mutate(tenant, slices[s]);
      }
    }
    std::lock_guard lock(rmu_);
    ++rstats_.mutations;
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
  /// The reference lives in the LAST touched shard's executor and stays
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

  /// Drain everything on the calling thread: flush every shard executor
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

  /// Retire every shard executor. With drain = true (default, and the
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
      // queue; retrying the drain terminates (mirrors Executor::shutdown).
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

  /// Aggregate kernel-level accounting across the shard executors. Note:
  /// `queries` here counts SUB-queries (one per touched shard); the
  /// logical count is router_stats().queries. The flop totals partition
  /// the unsharded executor's exactly, for masked and unmasked traffic
  /// alike — every product is counted in exactly one stage (flops_kept
  /// counts every product that reaches an accumulator, mask or no mask)
  /// and the carry adds none.
  ServeStats stats() const override {
    ServeStats out;
    for (const auto& e : execs_) out += e->stats();
    return out;
  }

  RouterStats router_stats() const {
    std::lock_guard lock(rmu_);
    return rstats_;
  }

  /// Per-tenant accounting summed across shards (sub-query granularity),
  /// plus this router's own cache hit/miss/bytes split — hits never reach
  /// a shard, so they are accounted here and only here.
  TenantStats tenant_stats(TenantId tenant) const {
    TenantStats out;
    for (const auto& e : execs_) {
      const auto ts = e->tenant_stats(tenant);
      out.queries += ts.queries;
      out.rows += ts.rows;
      out.flops += ts.flops;
      out.batches += ts.batches;
      out.deferrals += ts.deferrals;
      out.mutations += ts.mutations;
    }
    std::lock_guard lock(rmu_);
    const auto it = rtstats_.find(tenant);
    if (it != rtstats_.end()) {
      out.cache_hits += it->second.cache_hits;
      out.cache_misses += it->second.cache_misses;
      out.cache_bytes += it->second.cache_bytes;
    }
    return out;
  }

  /// Every tenant that has ever submitted, ascending, across all shards
  /// (cache-hit-only tenants included — they never reach a shard).
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
    std::size_t stage_ticket = 0;  ///< ticket within shards[stage]'s executor
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
  /// live index: only its last shard executor has work left for it.
  void advance_locked(std::size_t ticket, Chain& ch,
                      const sparse::Matrix<T>& r) {
    ch.stage += 1;
    ++rstats_.merges;
    submit_stage_locked(ch, r);
    if (ch.stage + 1 == ch.shards.size()) live_.erase(ticket);
  }

  /// Submit chain stage `ch.stage` to its shard executor (rmu_ held).
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
  /// Router-level per-tenant cache accounting (hits never reach a shard
  /// executor's TenantStats). Only the cache_* fields are ever nonzero.
  std::map<TenantId, TenantStats> rtstats_;
  bool stopping_ = false;
};

}  // namespace hyperspace::serve

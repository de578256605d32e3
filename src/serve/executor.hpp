#pragma once
// Executor — the per-shard worker behind serve::Router (serve/router.hpp).
//
// The Router is the one serving engine (the serve::Service); each of its
// N ≥ 1 row shards is one Executor: per-tenant queues, the admission
// policy, an optional background flush thread and the shard's DeltaBase.
// Validation, trace sampling, the result cache and the logical query and
// mutation counts live once, in the Router; an Executor only ever sees
// sub-queries the Router has already validated and translated into the
// shard's local coordinates. A flush drains the queues into coalesced
// batches under the admission policy and runs each batch as one coalesced
// run_batch launch against the base snapshot pinned at flush:
//
//   * max_batch_queries  — close a batch after this many queries (bounds
//     result latency and stacked-operand size);
//   * max_batch_flops    — close a batch when its accumulated flop count
//     would exceed this budget. Flops are counted exactly — the sum over
//     lhs entries of the matching base-row length — so admission is
//     deterministic;
//   * tenant_flop_quota  — per-tenant flop budget *within one batch*.
//     Admission drains tenants round-robin (ascending tenant id, rotating
//     the starting tenant batch to batch), and a tenant whose next query
//     would blow its quota is deferred to a later batch while other
//     tenants keep flowing — one heavy tenant cannot starve point lookups.
//     The first query of a batch is always admitted, so a zero quota (and
//     a zero batch budget) still makes progress, one query per batch.
//
// Synchronous mode (default): the caller drives flush() (or lets wait()
// do it). Async mode (`Config.async`): a dedicated background thread is
// work-conserving — it launches as soon as its queue is non-empty, and
// whatever arrives during a launch becomes the next batch, so batches grow
// with load by themselves and a lone query never waits on a timer. Tickets
// settle into a deque, so a settled result never moves. shutdown() (also
// run by the destructor) retires the flush thread and, by default, drains
// every queued-but-unflushed ticket.
//
// The shard's base is updatable (sparse/delta.hpp): mutate(ops) applies an
// UpdateBatch to the base's delta and publishes the next epoch. Every
// flushed batch pins the base snapshot FIRST, then runs — so an in-flight
// batch finishes on the epoch it started on while later submits see the
// new one, and a query's answer is always bit-identical to a from-scratch
// rebuild of the base at that epoch.
//
// Whatever the mode, batch boundaries, tenant mix, flush timing, and
// thread count NEVER change an answer: every result is bit-identical to
// running its query alone, synchronously. ServeStats aggregates what
// coalescing saved; TenantStats splits the accounting per tenant.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/admission.hpp"
#include "serve/batch.hpp"
#include "serve/service.hpp"  // TenantId
#include "serve/trace.hpp"
#include "util/metrics.hpp"

namespace hyperspace::serve {

/// Per-tenant split of the serving accounting. queries/rows/flops are
/// exact and independent of flush timing and thread count; batches and
/// deferrals describe how admission actually sliced the queue (they depend
/// on flush timing in async mode). An Executor fills the execution fields;
/// the Router adds mutations and the cache split, which it counts once per
/// logical call.
struct TenantStats {
  std::uint64_t queries = 0;    ///< queries executed for this tenant
  std::uint64_t rows = 0;       ///< lhs rows executed
  std::uint64_t flops = 0;      ///< exact flops admitted (Σ base-row lengths)
  std::uint64_t batches = 0;    ///< batches this tenant participated in
  std::uint64_t deferrals = 0;  ///< batches where the quota deferred this tenant
  std::uint64_t mutations = 0;  ///< logical mutation batches applied
  /// Result-cache split (serve/cache.hpp). A cache hit settles at submit
  /// and never executes, so it counts here and NOT in queries/rows/flops
  /// — those describe work the kernels actually did.
  std::uint64_t cache_hits = 0;    ///< queries answered from the cache
  std::uint64_t cache_misses = 0;  ///< cacheable queries that missed
  std::uint64_t cache_bytes = 0;   ///< answer bytes served from the cache
};

template <semiring::Semiring S>
class Executor {
  using T = typename S::value_type;

 public:
  struct Config {
    int max_batch_queries = 64;
    std::uint64_t max_batch_flops = std::uint64_t{1} << 32;
    /// Per-tenant flop budget within one batch (~0 = unlimited).
    std::uint64_t tenant_flop_quota = ~std::uint64_t{0};
    sparse::MxmStrategy strategy = sparse::MxmStrategy::kAuto;
    /// Spawn the background flush thread. Leave false for single-threaded
    /// (no-extra-thread) builds: every API below then runs synchronously
    /// on the calling thread, same results bit for bit.
    bool async = false;
    /// Adaptive admission (serve/admission.hpp): when set, every flushed
    /// batch's exact (flops, latency) sample drives `max_batch_flops`
    /// toward this per-batch latency target. Zero (the default) keeps the
    /// budget static. Results are unaffected either way — admission only
    /// re-slices the queue.
    std::chrono::microseconds latency_target{0};
    /// Adaptive admission steers by the p95 of observed ns-per-flop
    /// instead of the EWMA mean (see AdmissionController::Config::use_p95).
    /// Only meaningful with latency_target set.
    bool admission_use_p95 = false;
    /// Delta-base tuning (buffer size, cascade fanout, compaction
    /// threshold, background compactor).
    sparse::DeltaConfig delta{};
    /// The Router's result-cache byte budget (serve/cache.hpp); 0 (default)
    /// disables caching. Entries are keyed on the Router's epoch, so a
    /// mutate() invalidates without flushing. The shard worker ignores it.
    std::size_t cache_bytes = 0;
    /// Cache empty answers too (negative entries). Only meaningful with
    /// cache_bytes > 0.
    bool cache_negative = true;
  };

  /// Serve `base` as shard `shard` of its Router; the index names this
  /// worker's admission gauges ("serve.admission.shard<N>.*").
  Executor(sparse::Matrix<T> base, const Config& cfg, std::size_t shard)
      : cfg_(cfg), shard_(shard) {
    if (cfg_.max_batch_queries < 1) {
      throw std::invalid_argument("Executor: max_batch_queries must be >= 1");
    }
    if (cfg_.strategy == sparse::MxmStrategy::kGustavson &&
        base.ncols() > sparse::kMaxGustavsonWidth) {
      // Fail fast: a base too wide for the dense scratch would otherwise
      // only surface as a kernel throw at flush time.
      throw std::invalid_argument(
          "Executor: base too wide for the kGustavson dense scratch");
    }
    live_ = {cfg_.max_batch_flops};
    if (cfg_.latency_target.count() > 0) {
      ctrl_ = AdmissionController({.latency_target = cfg_.latency_target,
                                   .use_p95 = cfg_.admission_use_p95},
                                  live_);
    }
    // Wrap the base in a DeltaBase: the ctor warms the view cache on this
    // thread (submit() computes admission flops and the flush thread runs
    // kernels concurrently, so the lazily materialized row-id cache must
    // not be built under a race) and publishes the epoch-0 snapshot.
    base_ = std::make_unique<sparse::DeltaBase<S>>(std::move(base), cfg_.delta);
    if (cfg_.async) {
      flusher_running_ = true;
      flusher_ = std::thread([this] { flush_loop(); });
    }
  }

  ~Executor() { shutdown(); }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The base's compacted main matrix (the delta is not folded in). The
  /// reference is valid until the base's next compaction.
  const sparse::Matrix<T>& base() const { return base_->main_matrix(); }
  /// The base's delta wrapper — snapshot()/epoch()/compactions() live there.
  const sparse::DeltaBase<S>& delta_base() const { return *base_; }

  /// Execution accounting snapshot (safe against a concurrent flush).
  ServeStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  /// Per-tenant accounting snapshot; default-constructed for an unknown id.
  TenantStats tenant_stats(TenantId tenant) const {
    std::lock_guard lock(mu_);
    const auto it = tstats_.find(tenant);
    return it == tstats_.end() ? TenantStats{} : it->second;
  }

  /// Every tenant that has ever submitted, ascending.
  std::vector<TenantId> tenants() const {
    std::lock_guard lock(mu_);
    std::vector<TenantId> out;
    out.reserve(tstats_.size());
    for (const auto& [t, _] : tstats_) out.push_back(t);
    return out;
  }

  /// Queries queued but not yet admitted to a batch.
  std::size_t pending() const {
    std::lock_guard lock(mu_);
    return n_pending_;
  }

  /// The admission limits currently in force. Equal to the configured
  /// statics unless `latency_target` enabled the adaptive controller.
  AdmissionController::Limits admission_limits() const {
    std::lock_guard lock(mu_);
    return live_;
  }

  /// Enqueue a sub-query for `tenant`; returns the ticket redeemable via
  /// wait()/poll(). The Router has already validated its shape (run_batch
  /// re-checks it at launch) and drawn its trace id.
  std::size_t submit(TenantId tenant, Query<S> q) {
    auto& tracer = trace::Tracer::instance();
    trace::ScopedSpan span(trace::Stage::kSubmit, q.trace, q.trace != 0);
    const std::uint64_t flops = query_flops(q);
    const auto rows = static_cast<std::uint64_t>(q.lhs.nrows());
    span.args(flops, rows);
    // One timestamp serves both the tenant-queue span and the query
    // latency histogram; 0 means "don't measure this one".
    const std::uint64_t enq_ns =
        (q.trace != 0 || util::metrics::enabled()) ? tracer.now_ns() : 0;
    const std::uint64_t tr = q.trace;
    std::unique_lock lock(mu_);
    if (stopping_) {
      throw std::runtime_error("Executor: submit after shutdown");
    }
    const std::size_t ticket = results_.size();
    results_.emplace_back();
    traces_.push_back(tr);
    queues_[tenant].push_back(
        Pending{std::move(q), ticket, flops, rows, tenant, tr, enq_ns});
    ++n_pending_;
    (void)tstats_[tenant];  // tenant becomes visible on first submit
    lock.unlock();
    queue_cv_.notify_one();  // an idle async flusher launches at once
    return ticket;
  }

  /// Apply `ops` (shard-local keys, checked by the Router) to the base in
  /// order, last write per key wins, and return the shard epoch the batch
  /// created. Publication is atomic: batches flushed before this call
  /// serve the old epoch, batches flushed after serve the new one, and a
  /// flush racing this call gets exactly one of the two — never a
  /// half-applied batch.
  std::uint64_t mutate(const sparse::UpdateBatch<T>& ops) {
    {
      std::lock_guard lock(mu_);
      if (stopping_) {
        throw std::runtime_error("Executor: mutate after shutdown");
      }
    }
    return base_->mutate(ops);
  }

  /// Drain the whole queue now, on the calling thread. In async mode this
  /// is also what the background thread runs whenever its queue is
  /// non-empty; concurrent drains serialize, so calling it alongside the
  /// flusher is safe.
  void flush() {
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;  // shutdown owns the final drain decision
    }
    flush_impl();
  }

  /// Block until the ticket's result exists and return it. The reference
  /// stays valid across later submit()/flush() calls (results live in a
  /// deque, which never relocates settled elements). In sync mode this
  /// flushes on the calling thread; in async mode the flush thread is
  /// already draining the queue, so it just waits. Throws if the ticket was
  /// dropped by a non-draining shutdown.
  const sparse::Matrix<T>& wait(std::size_t ticket) {
    trace::ScopedSpan span;
    std::unique_lock lock(mu_);
    if (ticket >= results_.size()) {
      throw std::out_of_range("Executor: unknown ticket");
    }
    span.start(trace::Stage::kWait, traces_[ticket], traces_[ticket] != 0);
    // terminated_ covers every other exit: shutdown() drains (or drops)
    // whatever the flusher left and only then sets it.
    const auto done = [&] {
      return results_[ticket].has_value() || failed_.count(ticket) > 0 ||
             terminated_;
    };
    if (!done() && !flusher_running_) {
      lock.unlock();
      flush();
      lock.lock();
    }
    // An in-flight drain on another thread may still be writing results.
    done_cv_.wait(lock, done);
    if (results_[ticket]) return *results_[ticket];
    rethrow_if_failed_locked(ticket);
    throw std::runtime_error("Executor: ticket dropped at shutdown");
  }

  /// Non-blocking probe: the settled result, or nullptr while pending.
  const sparse::Matrix<T>* poll(std::size_t ticket) const {
    std::lock_guard lock(mu_);
    if (ticket >= results_.size()) {
      throw std::out_of_range("Executor: unknown ticket");
    }
    rethrow_if_failed_locked(ticket);
    return results_[ticket] ? &*results_[ticket] : nullptr;
  }

  /// Retire the flush thread (async mode) and finalize the executor. With
  /// drain = true (the default, and what the destructor runs) every
  /// queued-but-unflushed ticket is resolved first; with drain = false
  /// unflushed queries are dropped and their wait() throws. Idempotent;
  /// submit() after shutdown throws.
  void shutdown(bool drain = true) {
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    queue_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    if (drain) {
      // Exception-safe drain: a batch that throws has already routed its
      // failure to its tickets, so swallow it and keep draining the rest —
      // the epilogue below must always run (a throw escaping here would
      // std::terminate from the destructor and strand every waiter short
      // of the terminated_ signal).
      for (;;) {
        try {
          flush_impl();
          break;  // queue fully drained
        } catch (...) {
          // The failed batch left the queue; retry the remainder.
        }
      }
    }
    {
      std::lock_guard lock(mu_);
      queues_.clear();
      n_pending_ = 0;
      terminated_ = true;
    }
    done_cv_.notify_all();
  }

 private:
  struct Pending {
    Query<S> q;
    std::size_t ticket = 0;
    std::uint64_t flops = 0;
    std::uint64_t rows = 0;
    TenantId tenant = 0;
    std::uint64_t trace = 0;   ///< copy of q.trace, survives the move-out
    std::uint64_t enq_ns = 0;  ///< submit timestamp (0 = unmeasured)
  };

  /// Rethrow the flush failure owned by `ticket`, if any (mu_ held).
  void rethrow_if_failed_locked(std::size_t ticket) const {
    const auto it = failed_.find(ticket);
    if (it != failed_.end()) std::rethrow_exception(it->second);
  }

  /// Exact flop count of q against the base at its current epoch: Σ over
  /// lhs entries of the matching base-row length (delta overlay included).
  /// O(nnz(lhs) · log) — cheap next to the product itself, and what makes
  /// the flop-budget admission exact.
  std::uint64_t query_flops(const Query<S>& q) const {
    const auto snap = base_->snapshot();
    const auto bv = snap->base_view();
    const auto a = q.lhs.view();
    std::uint64_t flops = 0;
    for (std::size_t ri = 0; ri < a.row_ids.size(); ++ri) {
      for (const sparse::Index k : a.row_cols(ri)) {
        flops += static_cast<std::uint64_t>(bv.row_nnz(k));
      }
    }
    return flops;
  }

  /// Admission under mu_: one batch, drained round-robin across tenants in
  /// ascending id order starting after the last tenant served, each pass
  /// taking at most one query per tenant. Closes on max_batch_queries /
  /// max_batch_flops / quota exhaustion; the first query of a batch is
  /// always admitted so zero budgets still make progress.
  std::vector<Pending> next_batch_locked() {
    std::vector<Pending> batch;
    if (n_pending_ == 0) return batch;
    std::vector<TenantId> ids;
    ids.reserve(queues_.size());
    for (const auto& [t, dq] : queues_) {
      if (!dq.empty()) ids.push_back(t);
    }
    if (ids.empty()) return batch;
    std::size_t start = 0;
    while (start < ids.size() && ids[start] < rr_cursor_) ++start;
    if (start == ids.size()) start = 0;

    const auto maxq = static_cast<std::size_t>(cfg_.max_batch_queries);
    std::uint64_t batch_flops = 0;
    std::map<TenantId, std::uint64_t> used;
    std::map<TenantId, bool> quota_deferred;
    bool progress = true;
    while (progress && batch.size() < maxq) {
      progress = false;
      for (std::size_t k = 0; k < ids.size() && batch.size() < maxq; ++k) {
        const TenantId t = ids[(start + k) % ids.size()];
        auto& dq = queues_[t];
        if (dq.empty()) continue;
        const auto& head = dq.front();
        if (!batch.empty()) {
          const bool over_quota =
              used[t] + head.flops > cfg_.tenant_flop_quota;
          if (over_quota) quota_deferred[t] = true;
          if (over_quota ||
              batch_flops + head.flops > live_.max_batch_flops) {
            continue;
          }
        }
        batch_flops += head.flops;
        used[t] += head.flops;
        batch.push_back(std::move(dq.front()));
        dq.pop_front();
        --n_pending_;
        rr_cursor_ = t + 1;
        progress = true;
      }
    }
    for (const auto& [t, _] : quota_deferred) {
      if (!queues_[t].empty()) ++tstats_[t].deferrals;
    }
    return batch;
  }

  /// One full drain: admit → run (kernel outside mu_, so submits keep
  /// flowing) → settle results, repeated until the queue is empty. Whole
  /// drains serialize on flush_mu_.
  void flush_impl() {
    std::lock_guard flush_lock(flush_mu_);
    auto& tracer = trace::Tracer::instance();
    trace::ScopedSpan flush_span(trace::Stage::kFlush, 0, tracer.enabled());
    std::uint64_t drained = 0;
    while (true) {
      std::vector<Pending> batch;
      {
        trace::ScopedSpan adm(trace::Stage::kAdmission, 0, tracer.enabled());
        std::lock_guard lock(mu_);
        batch = next_batch_locked();
        adm.args(batch.size());
      }
      if (batch.empty()) {
        flush_span.args(drained);
        return;
      }
      drained += batch.size();
      if (tracer.enabled()) {
        // The tenant-queue wait ends here, at admission. Each span lands
        // on its query's own lane (cross-thread duration: enqueued on the
        // submitter, admitted here). Guard against a tracer reconfigure
        // between the two timestamps.
        const std::uint64_t now = tracer.now_ns();
        for (const auto& p : batch) {
          if (p.trace != 0 && p.enq_ns != 0 && p.enq_ns <= now) {
            tracer.record(trace::Stage::kTenantQueue, p.trace,
                          trace::query_lane(p.trace), p.enq_ns,
                          now - p.enq_ns, p.flops, p.tenant);
          }
        }
      }
      try {
        run_admitted(batch);
      } catch (...) {
        // Route the failure to the batch's tickets so their wait()/poll()
        // rethrows it, then propagate: synchronous callers see the throw,
        // the background loop catches it and keeps serving later batches.
        {
          std::lock_guard lock(mu_);
          for (const auto& p : batch) {
            failed_.emplace(p.ticket, std::current_exception());
          }
        }
        done_cv_.notify_all();
        throw;
      }
    }
  }

  void run_admitted(std::vector<Pending>& batch) {
    std::vector<const Query<S>*> qs;
    qs.reserve(batch.size());
    std::uint64_t batch_flops = 0;
    for (const auto& p : batch) {
      qs.push_back(&p.q);
      batch_flops += p.flops;
    }
    // Pin the snapshot FIRST: the whole batch runs on the epoch captured
    // here even if mutations land mid-run, and the shared_ptr keeps that
    // epoch alive past any concurrent compaction.
    const auto snap = base_->snapshot();
    const bool telemetry = util::metrics::enabled();
    const bool timed = ctrl_.enabled() || telemetry;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    trace::ScopedSpan kernel_span(trace::Stage::kKernel, 0,
                                  trace::Tracer::instance().enabled());
    kernel_span.args(batch_flops, batch.size());
    // One coalesced launch against the pinned snapshot's patched view.
    ServeStats ss;
    auto rs = run_batch<S>(snap->base_view(), qs, cfg_.strategy, &ss);
    ss.epoch = snap->epoch;
    kernel_span.finish();
    const auto dt = timed ? std::chrono::steady_clock::now() - t0
                          : std::chrono::steady_clock::duration{};
    if (telemetry) {
      namespace hm = util::metrics;
      static auto& h_batch =
          hm::Registry::instance().histogram("serve.batch_ns");
      h_batch.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    }
    {
      std::lock_guard lock(mu_);
      if (ctrl_.enabled()) {
        // One exact (flops, latency) sample per flushed batch; the derived
        // limits govern the NEXT admission round.
        ctrl_.observe(batch_flops,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(dt));
        live_ = ctrl_.limits();
      }
      if (telemetry) {
        // Admission state as gauges: a stuck controller (samples pinned at
        // 0, limits never moving) is observable instead of silent. Each
        // shard binds its OWN "serve.admission.shard<N>.*" set, so N shards
        // export N distinct sets instead of last-batch-wins on one. Bound
        // lazily under mu_, once per executor.
        namespace hm = util::metrics;
        if (g_adm_flops_ == nullptr) {
          const std::string prefix =
              "serve.admission.shard" + std::to_string(shard_) + ".";
          auto& reg = hm::Registry::instance();
          g_adm_flops_ = &reg.gauge(prefix + "max_batch_flops",
                                    hm::Stability::kTiming);
          g_adm_samples_ =
              &reg.gauge(prefix + "samples", hm::Stability::kTiming);
        }
        g_adm_flops_->set(static_cast<double>(live_.max_batch_flops));
        g_adm_samples_->set(static_cast<double>(ctrl_.samples()));
      }
      const std::uint64_t settle_ns =
          telemetry ? trace::Tracer::instance().now_ns() : 0;
      std::map<TenantId, bool> seen;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        results_[batch[k].ticket] = std::move(rs[k]);
        if (telemetry && batch[k].enq_ns != 0 &&
            batch[k].enq_ns <= settle_ns) {
          namespace hm = util::metrics;
          static auto& h_lat = hm::Registry::instance().histogram(
              "serve.query_latency_ns");
          h_lat.record(settle_ns - batch[k].enq_ns);
        }
        auto& ts = tstats_[batch[k].tenant];
        ++ts.queries;
        ts.rows += batch[k].rows;
        ts.flops += batch[k].flops;
        if (!seen[batch[k].tenant]) {
          seen[batch[k].tenant] = true;
          ++ts.batches;
        }
      }
      stats_ += ss;
    }
    done_cv_.notify_all();
  }

  /// Background flush loop (async mode), work-conserving: sleep only while
  /// the queue is empty, and drain as soon as a submit (or shutdown) wakes
  /// it. flush_impl() keeps admitting until the queue is empty, so queries
  /// that land during a launch ride the next batch of the same drain.
  void flush_loop() {
    std::unique_lock lock(mu_);
    while (!stopping_) {
      queue_cv_.wait(lock, [&] { return stopping_ || n_pending_ > 0; });
      if (stopping_) break;
      lock.unlock();
      try {
        flush_impl();
      } catch (...) {
        // Already routed to the failed tickets; the loop keeps serving.
      }
      lock.lock();
    }
    flusher_running_ = false;
    lock.unlock();
    done_cv_.notify_all();
  }

  std::unique_ptr<sparse::DeltaBase<S>> base_;
  Config cfg_;
  std::size_t shard_;             ///< this worker's shard index
  AdmissionController ctrl_;      ///< adaptive admission (off by default)
  AdmissionController::Limits live_{};  ///< limits in force (under mu_)
  /// This executor's namespaced admission gauges, bound lazily under mu_
  /// on the first telemetered batch (registry entries are process-
  /// lifetime, so the pointers never dangle).
  util::metrics::Gauge* g_adm_flops_ = nullptr;
  util::metrics::Gauge* g_adm_samples_ = nullptr;

  mutable std::mutex mu_;       ///< queues, results, stats, lifecycle flags
  std::mutex flush_mu_;         ///< serializes whole-queue drains
  std::condition_variable queue_cv_;  ///< wakes the flush thread
  std::condition_variable done_cv_;   ///< wakes wait()ers

  ServeStats stats_;
  std::map<TenantId, TenantStats> tstats_;
  std::map<TenantId, std::deque<Pending>> queues_;
  std::size_t n_pending_ = 0;
  TenantId rr_cursor_ = 0;  ///< round-robin resumes at the first id >= this
  std::deque<std::optional<sparse::Matrix<T>>> results_;
  std::deque<std::uint64_t> traces_;  ///< ticket → trace id (0 = untraced)
  std::map<std::size_t, std::exception_ptr> failed_;  ///< ticket → flush error

  std::thread flusher_;
  bool flusher_running_ = false;
  bool stopping_ = false;    ///< refuses new submits; flusher exits
  bool terminated_ = false;  ///< results are final; absent ⇒ dropped
};

}  // namespace hyperspace::serve

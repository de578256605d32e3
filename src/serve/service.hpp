#pragma once
// serve::Service — the ONE serving submit surface.
//
// One engine implements it: serve::Router (serve/router.hpp), over N ≥ 1
// row shards, each run by an internal Executor worker. The unsharded
// engine is the 1-shard Router. Callers hold a Service<S>& and use
//
//   submit(tenant, query)  → ticket      enqueue a read
//   mutate(tenant, batch)  → epoch       apply writes (delta bases)
//   wait(ticket)           → result      block until settled
//   poll(ticket)           → result|null non-blocking probe
//   flush()                              drain on the calling thread
//   shutdown(drain)                      retire the engine
//   stats() / epoch() / pending()        accounting
//
// Every engine serves one base (split into row shards); a caller with
// several bases runs one engine per base. The contract: results are
// bit-identical to running each query alone against a from-scratch
// rebuild of its base at the epoch the query's batch was served —
// batching, sharding, asynchrony, mutation interleaving, and thread count
// never change an answer. The result cache (serve/cache.hpp, enabled via
// Config::executor.cache_bytes / cache_negative, default off) inherits
// that contract wholesale: a hit is a byte-identical replay of the answer
// the engine settled at that epoch, never a recomputation, so enabling it
// is invisible to every caller of this interface except in latency and in
// the serve.cache.* registry section of metrics_text()/metrics_json().

#include <cstdint>
#include <sstream>
#include <string>

#include "serve/batch.hpp"
#include "sparse/delta.hpp"
#include "util/metrics.hpp"

namespace hyperspace::serve {

using TenantId = std::uint32_t;

template <semiring::Semiring S>
class Service {
 public:
  using T = typename S::value_type;

  virtual ~Service() = default;

  /// Enqueue `q` for `tenant`; returns the ticket redeemable via
  /// wait()/poll(). Shape mismatches throw here, at admission.
  virtual std::size_t submit(TenantId tenant, Query<S> q) = 0;

  /// Apply a batch of mutations (in order, last write per key wins) to the
  /// engine's base and return the epoch the batch created.
  /// In-flight query batches finish on the epoch they started on; later
  /// flushes serve the new one.
  virtual std::uint64_t mutate(TenantId tenant,
                               const sparse::UpdateBatch<T>& ops) = 0;

  /// Block until the ticket's result exists and return it. The reference
  /// stays valid for the engine's lifetime.
  virtual const sparse::Matrix<T>& wait(std::size_t ticket) = 0;

  /// Non-blocking probe: the settled result, or nullptr while pending.
  virtual const sparse::Matrix<T>* poll(std::size_t ticket) = 0;

  /// Drain all queued work on the calling thread.
  virtual void flush() = 0;

  /// Retire the engine. drain = true resolves queued tickets first;
  /// drain = false drops them (their wait() throws). Idempotent.
  virtual void shutdown(bool drain) = 0;

  /// Aggregate kernel-level accounting, including the highest epoch any
  /// flushed batch was served at.
  virtual ServeStats stats() const = 0;

  /// The base's current published epoch (0 = never mutated).
  virtual std::uint64_t epoch() const = 0;

  /// Queries queued but not yet admitted to a batch.
  virtual std::size_t pending() const = 0;

  /// Anonymous-tenant conveniences.
  std::size_t submit(Query<S> q) { return submit(TenantId{0}, std::move(q)); }
  std::uint64_t mutate(const sparse::UpdateBatch<T>& ops) {
    return mutate(TenantId{0}, ops);
  }
  void shutdown() { shutdown(true); }

  /// Prometheus-style text exposition: the engine's own ServeStats (exact,
  /// thread-count-invariant) followed by the process-wide metrics registry
  /// (counters, gauges, latency histograms with p50/p95/p99 quantiles).
  /// The registry section is empty when telemetry is compiled out or
  /// disabled; the ServeStats lines are always present.
  std::string metrics_text() const {
    std::ostringstream os;
    const ServeStats ss = stats();
    os << "# engine ServeStats (exact, thread-count-invariant)\n";
    os << "hyperspace_serve_queries " << ss.queries << "\n";
    os << "hyperspace_serve_batches " << ss.batches << "\n";
    os << "hyperspace_serve_kernel_launches " << ss.kernel_launches << "\n";
    os << "hyperspace_serve_launches_saved " << ss.launches_saved << "\n";
    os << "hyperspace_serve_rows_coalesced " << ss.rows_coalesced << "\n";
    os << "hyperspace_serve_flops_kept " << ss.flops_kept << "\n";
    os << "hyperspace_serve_flops_skipped " << ss.flops_skipped << "\n";
    os << "hyperspace_serve_mutations " << ss.mutations << "\n";
    os << "hyperspace_serve_epoch " << epoch() << "\n";
    os << "hyperspace_serve_pending " << pending() << "\n";
    os << util::metrics::Registry::instance().prometheus_text();
    return os.str();
  }

  /// The same surface as one JSON object: {"serve": {...engine stats...},
  /// "registry": {...process-wide metrics, segregated by stability...}}.
  std::string metrics_json() const {
    std::ostringstream os;
    const ServeStats ss = stats();
    os << "{\"serve\":{\"queries\":" << ss.queries
       << ",\"batches\":" << ss.batches
       << ",\"kernel_launches\":" << ss.kernel_launches
       << ",\"launches_saved\":" << ss.launches_saved
       << ",\"rows_coalesced\":" << ss.rows_coalesced
       << ",\"flops_kept\":" << ss.flops_kept
       << ",\"flops_skipped\":" << ss.flops_skipped
       << ",\"mutations\":" << ss.mutations << ",\"epoch\":" << epoch()
       << ",\"pending\":" << pending()
       << "},\"registry\":" << util::metrics::Registry::instance().json()
       << "}";
    return os.str();
  }
};

}  // namespace hyperspace::serve

// Sharded async multi-tenant query serving WITH live mutation — the
// millions-of-concurrent-users loop in miniature.
//
// A follower graph is the shared base array, partitioned by the shard map
// into four row-range shards, each served by its own shard worker with its
// own background flush thread and admission budget. Three tenants (a
// recommender, a feed filter, and a profile service) issue neighbor
// expansions (analytic), filtered expansions (fused output masks, both
// senses), and profile lookups (select) — and between traffic ticks the
// graph itself CHANGES: users follow and unfollow, applied live through
// mutate() as delta-base epochs, no rebuild, no downtime.
//
// Everything below the construction line drives the engine through ONE
// interface: serve::Service<S> — submit / mutate / wait / poll / flush /
// shutdown / stats. The traffic loop takes a Service& and never learns how
// many shards serve it; build the router with one shard and the same code
// runs unchanged (and answers bit-identically, per the Service contract).
// Nobody calls flush(): each shard flush thread launches as
// soon as its queue is non-empty, and whatever queues during a launch is
// coalesced into the next one — ONE block-diagonal masked product per
// batch under the admission policy. Callers
// submit() and later wait() their ticket, exactly like a future. In-flight
// batches finish on the epoch they started on; batches flushed after a
// mutate() serve the new epoch.
//
// The run is also OBSERVED: the tracer samples every 2nd query end to end
// (submit → tenant queue → admission → kernel → carry → gather → wait)
// and dumps a Chrome trace-event JSON — pass a path as argv[1], default
// query_server_trace.json — loadable in chrome://tracing or Perfetto and
// schema-checked in CI by tools/check_trace_json.py. The Prometheus-style
// metrics exposition (Service::metrics_text) prints at the end.

#include <cstdio>
#include <iostream>

#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "util/generators.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using sparse::Index;
using S = semiring::PlusTimes<double>;
using Q = serve::Query<S>;

// Tenants: 0 = recommender (heavy expansions), 1 = feed filter (masked
// expansions), 2 = profile service (point lookups). The quota bounds how
// many flops any one tenant may occupy per batch, so tenant 2's lookups
// never queue behind tenant 0's fan-outs.
constexpr serve::TenantId kRecommender = 0;
constexpr serve::TenantId kFeedFilter = 1;
constexpr serve::TenantId kProfiles = 2;

/// One "tick" of traffic against ANY serving engine: `count` concurrent
/// requests of mixed kinds, submitted through the Service interface.
std::vector<std::size_t> run_tick(serve::Service<S>& svc, Index n,
                                  util::Xoshiro256& rng, int count) {
  auto random_vertex = [&] {
    return static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(n)));
  };
  std::vector<std::size_t> tickets;
  tickets.reserve(static_cast<std::size_t>(count));
  // Warm the trending panel once per tick (one deliberate miss): the
  // cache installs at settle, so a burst submitted before the first
  // settle would probe an entry that does not exist yet. After this one
  // round trip every trending request below is a cache hit — until the
  // next churn epoch invalidates the entry and the next tick re-warms.
  svc.wait(svc.submit(kProfiles, Q::select({0, 1, 2, 3}, n)));
  for (int u = 0; u < count; ++u) {
    switch (u % 3) {
      case 0: {  // recommender: who do my follows follow? (8-seed fan-out)
        std::vector<sparse::Triple<double>> seeds;
        for (int i = 0; i < 8; ++i) seeds.push_back({0, random_vertex(), 1.0});
        tickets.push_back(svc.submit(
            kRecommender,
            Q::analytic(sparse::Matrix<double>::from_triples<S>(
                1, n, std::move(seeds)))));
        break;
      }
      case 1: {  // feed filter: expand, but exclude already-seen users
        std::vector<sparse::Triple<double>> seen;
        for (int i = 0; i < 32; ++i) seen.push_back({0, random_vertex(), 1.0});
        tickets.push_back(svc.submit(
            kFeedFilter,
            Q::masked(sparse::Matrix<double>::from_unique_triples(
                          1, n, {{0, random_vertex(), 1.0}}),
                      sparse::Matrix<double>::from_triples<S>(
                          1, n, std::move(seen)),
                      {.complement = true})));
        break;
      }
      default: {  // profile service: raw adjacency rows for 4 users;
        // every other request is the trending panel — the SAME four hot
        // profiles every time, the repeat shape the result cache serves
        // from memory until the next churn epoch invalidates it.
        if (u % 2 == 0) {
          tickets.push_back(svc.submit(kProfiles, Q::select({0, 1, 2, 3}, n)));
        } else {
          tickets.push_back(svc.submit(
              kProfiles, Q::select({random_vertex(), random_vertex(),
                                    random_vertex(), random_vertex()},
                                   n)));
        }
      }
    }
  }
  return tickets;
}

/// The graph changes between ticks: `follows` new edges land, `unfollows`
/// existing-or-not edges drop. One mutate() call, one new epoch, applied
/// live while the flush threads keep serving.
std::uint64_t churn(serve::Service<S>& svc, Index n, util::Xoshiro256& rng,
                    int follows, int unfollows) {
  auto random_vertex = [&] {
    return static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(n)));
  };
  sparse::UpdateBatch<double> ops;
  for (int i = 0; i < follows; ++i) {
    ops.push_back(
        sparse::Update<double>::assign(random_vertex(), random_vertex(), 1.0));
  }
  for (int i = 0; i < unfollows; ++i) {
    ops.push_back(
        sparse::Update<double>::erased(random_vertex(), random_vertex()));
  }
  return svc.mutate(ops);
}

}  // namespace

int main(int argc, char** argv) {
  // Arm telemetry before any traffic: metrics are on by default; tracing
  // is opt-in and samples 1 in 2 queries here to show sampled operation.
  hyperspace::util::metrics::set_enabled(true);
  serve::trace::Tracer::instance().configure(
      {.enabled = true, .sample_every = 2});
  const char* trace_path = argc > 1 ? argv[1] : "query_server_trace.json";
  const int scale = 12;
  const Index n = Index{1} << scale;
  const auto edges = util::rmat_edges({.scale = scale, .edge_factor = 16,
                                       .seed = 7});
  std::vector<sparse::Triple<double>> t;
  for (const auto& e : edges) t.push_back({e.src, e.dst, 1.0});
  const auto base = sparse::Matrix<double>::from_triples<S>(n, n,
                                                            std::move(t));
  std::cout << "base graph: " << n << " users, " << base.nnz()
            << " follow edges\n";

  serve::Router<S> router(
      base, {.executor = {.max_batch_queries = 64,
                          .tenant_flop_quota = std::uint64_t{1} << 16,
                          .async = true,
                          .cache_bytes = std::size_t{1} << 20},
             .n_shards = 4});
  std::cout << "router: " << router.n_shards() << " row-range shards of "
            << router.map().height(0) << " users each\n";

  // Everything from here down holds the ENGINE-AGNOSTIC interface.
  serve::Service<S>& ex = router;
  util::Xoshiro256 rng(42);

  // Three ticks of traffic with live graph churn in between: 128 new
  // follows and 64 unfollows per gap, each batch a new epoch served
  // without a rebuild. Queries in flight at mutate() time finish on the
  // epoch they started on.
  std::size_t answered = 0, nonempty = 0;
  for (int tick = 0; tick < 3; ++tick) {
    const auto tickets = run_tick(ex, n, rng, 256);
    // Redeem the futures — the flushers drain whatever is still queued on
    // their own, so no explicit flush() appears anywhere in this program.
    for (const auto tk : tickets) {
      ++answered;
      nonempty += ex.wait(tk).nnz() > 0;
    }
    if (tick + 1 < 3) {
      const auto epoch = churn(ex, n, rng, 128, 64);
      std::cout << "tick " << tick << ": graph churn applied, epoch "
                << epoch << '\n';
    }
  }

  const auto st = ex.stats();
  const auto rs = router.router_stats();
  std::cout << "answered " << answered << " queries (" << nonempty
            << " with hits)\n"
            << "mutation batches:     " << st.mutations << " (router epoch "
            << ex.epoch() << ")\n"
            << "single-shard queries: " << rs.single_shard << '\n'
            << "straddling queries:   " << rs.straddling << " (" << rs.merges
            << " carry merges)\n"
            << "shard sub-queries:    " << rs.stage_submits << '\n'
            << "batches flushed:      " << st.batches << '\n'
            << "kernel launches:      " << st.kernel_launches << '\n'
            << "launches saved:       " << st.launches_saved << '\n'
            << "rows coalesced:       " << st.rows_coalesced << '\n'
            << "mask flops kept:      " << st.flops_kept << '\n'
            << "mask flops skipped:   " << st.flops_skipped << '\n'
            << "cache hits / misses:  " << rs.cache_hits << " / "
            << rs.cache_misses << " (trending panel repeats; each churn "
            << "epoch re-misses once)\n";

  // Per-tenant breakdown — the TenantStats counters in action. queries /
  // rows / flops are exact and timing-invariant; batches / deferrals show
  // how the quota actually sliced this run's traffic.
  const char* names[] = {"recommender", "feed filter", "profiles"};
  std::printf("\n%-12s %8s %6s %10s %8s %10s\n", "tenant", "queries",
              "rows", "flops", "batches", "deferrals");
  for (const auto tenant : router.tenants()) {
    const auto ts = router.tenant_stats(tenant);
    std::printf("%-12s %8llu %6llu %10llu %8llu %10llu\n",
                names[tenant % 3],
                static_cast<unsigned long long>(ts.queries),
                static_cast<unsigned long long>(ts.rows),
                static_cast<unsigned long long>(ts.flops),
                static_cast<unsigned long long>(ts.batches),
                static_cast<unsigned long long>(ts.deferrals));
  }
  ex.shutdown();  // drains anything left; also what ~Router would do

  // Quiesced: dump the life-of-a-query trace and the metrics exposition.
  auto& tracer = serve::trace::Tracer::instance();
  std::cout << "\ntrace: " << tracer.recorded() << " spans recorded ("
            << "1 in " << tracer.sample_every() << " queries traced)\n";
  if (tracer.write_chrome_json(trace_path)) {
    std::cout << "trace: wrote " << trace_path
              << " (chrome://tracing / Perfetto)\n";
  } else {
    std::cerr << "trace: FAILED to write " << trace_path << '\n';
    return 1;
  }
  std::cout << "\n--- metrics_text() ---\n" << ex.metrics_text();
  return 0;
}

// Batch-throughput sweep for the serving engine: K concurrent queries
// against one shared base, batched (one block-diagonal coalesced launch)
// vs per-query dispatch (K launches). The acceptance row for the ROADMAP
// "batched query execution" item: at K=64 batching must beat per-query
// dispatch, with the savings reported in ServeStats counters.

#include "bench_common.hpp"

#include <iostream>

#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "util/metrics.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::bench;
using sparse::Index;
using S = semiring::PlusTimes<double>;

/// Point-lookup traffic — the canonical serving shape: every query is a
/// 1-row frontier expansion (a few entries against the base). Per-query
/// dispatch pays the full fixed cost (region spin-up, accumulator scratch
/// construction, result assembly) per request; batching pays it once per
/// flush, so this mix shows the coalescing win even single-threaded.
std::vector<serve::Query<S>> point_queries(int k, Index n,
                                           std::uint64_t seed) {
  using Q = serve::Query<S>;
  util::Xoshiro256 rng(seed);
  std::vector<serve::Query<S>> qs;
  qs.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    std::vector<sparse::Triple<double>> t;
    for (int e = 0; e < 4; ++e) {
      t.push_back({0,
                   static_cast<Index>(
                       rng.bounded(static_cast<std::uint64_t>(n))),
                   rng.uniform(0.5, 1.5)});
    }
    qs.push_back(Q::analytic(
        sparse::Matrix<double>::from_triples<S>(1, n, std::move(t))));
  }
  return qs;
}

/// Analytic traffic: heavier lhs operands (8 rows, 64 entries), every 4th
/// with a plain output mask, every 8th complement-masked, every 6th a
/// row-extraction select. Flop-dominated — the batched win here comes from
/// sharing one parallel region across queries, i.e. from core counts > 1.
std::vector<serve::Query<S>> mixed_queries(int k, Index n,
                                           std::uint64_t seed) {
  using Q = serve::Query<S>;
  util::Xoshiro256 rng(seed);
  std::vector<serve::Query<S>> qs;
  qs.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    if (i % 6 == 5) {
      std::vector<Index> rows;
      for (int r = 0; r < 8; ++r) {
        rows.push_back(static_cast<Index>(
            rng.bounded(static_cast<std::uint64_t>(n))));
      }
      qs.push_back(Q::select(rows, n));
      continue;
    }
    std::vector<sparse::Triple<double>> t;
    for (int e = 0; e < 64; ++e) {
      t.push_back({static_cast<Index>(rng.bounded(8)),
                   static_cast<Index>(
                       rng.bounded(static_cast<std::uint64_t>(n))),
                   rng.uniform(0.5, 1.5)});
    }
    auto lhs = sparse::Matrix<double>::from_triples<S>(8, n, std::move(t));
    if (i % 4 == 3) {
      std::vector<sparse::Triple<double>> mt;
      for (int e = 0; e < static_cast<int>(n) * 2; ++e) {
        mt.push_back({static_cast<Index>(rng.bounded(8)),
                      static_cast<Index>(
                          rng.bounded(static_cast<std::uint64_t>(n))),
                      1.0});
      }
      auto mask = sparse::Matrix<double>::from_triples<S>(8, n,
                                                          std::move(mt));
      qs.push_back(Q::masked(std::move(lhs), std::move(mask),
                                    {.complement = i % 8 == 7}));
    } else {
      qs.push_back(Q::analytic(std::move(lhs)));
    }
  }
  return qs;
}

std::vector<serve::Query<S>> make_queries(int kind, int k, Index n,
                                          std::uint64_t seed) {
  return kind == 0 ? point_queries(k, n, seed) : mixed_queries(k, n, seed);
}

void print_preamble() {
  util::banner("Serving: batched vs per-query dispatch");
  const auto base = er_matrix(1024, 16384, 1);
  for (const int kind : {0, 1}) {
    const auto qs = make_queries(kind, 16, 1024, 2);
    const auto batched = serve::run_batch(base, qs);
    bool same = true;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      same &= batched[i] == serve::run_single(base, qs[i]);
    }
    std::cout << "batched == per-query on 16-query "
              << (kind == 0 ? "point" : "mixed") << " mix: "
              << (same ? "yes" : "NO") << "\n";
  }
  // Sharded correctness gate: a fast wrong number must fail loudly here.
  for (const int shards : {2, 4}) {
    serve::Router<S> router(base, {.n_shards = shards});
    const auto qs = make_queries(1, 16, 1024, 2);
    bool same = true;
    std::vector<std::size_t> tickets;
    for (const auto& q : qs) tickets.push_back(router.submit(q));
    for (std::size_t i = 0; i < qs.size(); ++i) {
      same &= router.wait(tickets[i]) == serve::run_single(base, qs[i]);
    }
    std::cout << "sharded(N=" << shards
              << ") == unsharded on 16-query mixed mix: "
              << (same ? "yes" : "NO") << "\n";
  }
}

void bm_serve(benchmark::State& state) {
  // Arg0: K (queries per flush). Arg1: 0 = batched (one coalesced launch),
  // 1 = per-query dispatch (K launches). Arg2: 0 = point-lookup mix,
  // 1 = analytic mix.
  const int k = static_cast<int>(state.range(0));
  const Index n = 4096;
  const auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(static_cast<int>(state.range(2)), k, n, 3);
  const bool batched = state.range(1) == 0;
  serve::ServeStats stats;
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(
          serve::run_batch(base, qs, sparse::MxmStrategy::kAuto, &stats));
    } else {
      for (const auto& q : qs) {
        benchmark::DoNotOptimize(serve::run_single(base, q));
      }
    }
  }
  if (batched && stats.batches > 0) {
    state.counters["launches_saved_per_flush"] = static_cast<double>(
        stats.launches_saved / stats.batches);
    state.counters["rows_coalesced_per_flush"] = static_cast<double>(
        stats.rows_coalesced / stats.batches);
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(std::string(batched ? "batched" : "per-query") + ", K=" +
                 std::to_string(k) +
                 (state.range(2) == 0 ? ", point lookups" : ", analytic mix"));
}
BENCHMARK(bm_serve)
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Args({8, 0, 0})
    ->Args({8, 1, 0})
    ->Args({64, 0, 0})
    ->Args({64, 1, 0})
    ->Args({1, 0, 1})
    ->Args({1, 1, 1})
    ->Args({8, 0, 1})
    ->Args({8, 1, 1})
    ->Args({64, 0, 1})
    ->Args({64, 1, 1});

void bm_serve_executor(benchmark::State& state) {
  // The full engine path through a 1-shard Router: submit K queries,
  // flush, read one result — measures validation, the router's per-query
  // chain record, and the shard worker's queue + admission overhead on top
  // of the coalesced launch.
  const int k = static_cast<int>(state.range(0));
  const Index n = 4096;
  auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, k, n, 4);
  for (auto _ : state) {
    serve::Router<S> ex(base);
    std::size_t last = 0;
    for (const auto& q : qs) last = ex.submit(q);
    benchmark::DoNotOptimize(ex.wait(last));
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel("1-shard router submit+flush, K=" + std::to_string(k));
}
BENCHMARK(bm_serve_executor)->Arg(8)->Arg(64);

void bm_serve_executor_async(benchmark::State& state) {
  // Async 1-shard Router: the shard worker's work-conserving background
  // thread launches while the caller submits (whatever queues during a
  // launch is the next batch), then every ticket is awaited. Measures the
  // futures round trip (submit → background coalesced launch → wait)
  // against the synchronous path above; answers are bit-identical by
  // contract.
  const int k = static_cast<int>(state.range(0));
  const Index n = 4096;
  auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, k, n, 4);
  for (auto _ : state) {
    serve::Router<S> ex(base, {.executor = {.async = true}});
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (const auto& q : qs) tickets.push_back(ex.submit(q));
    for (const auto t : tickets) benchmark::DoNotOptimize(ex.wait(t));
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel("async 1-shard router submit+wait, K=" + std::to_string(k));
}
BENCHMARK(bm_serve_executor_async)->Arg(8)->Arg(64);

void bm_serve_multibase(benchmark::State& state) {
  // K point queries spread round-robin over G=4 bases. Arg1 selects the
  // dispatch: 0 = one coalesced run_batch per base (G launches over
  // pointer groups built once, outside the timed loop — what a caller with
  // several bases does), 1 = per-query dispatch (K launches). The gap is
  // what per-base coalescing buys once per-launch costs dominate.
  const int k = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const Index n = 2048;
  constexpr std::size_t kBases = 4;
  std::vector<sparse::Matrix<double>> bases;
  for (std::size_t g = 0; g < kBases; ++g) {
    bases.push_back(
        er_matrix(n, static_cast<std::size_t>(n) * 16, 10 + g));
  }
  const auto qs = make_queries(0, k, n, 5);
  std::vector<std::vector<const serve::Query<S>*>> groups(kBases);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    groups[i % kBases].push_back(&qs[i]);
  }
  serve::ServeStats stats;
  for (auto _ : state) {
    if (mode == 0) {
      for (std::size_t g = 0; g < kBases; ++g) {
        benchmark::DoNotOptimize(serve::run_batch<S>(
            bases[g], groups[g], sparse::MxmStrategy::kAuto, &stats));
      }
    } else {
      for (std::size_t i = 0; i < qs.size(); ++i) {
        benchmark::DoNotOptimize(serve::run_single(bases[i % kBases], qs[i]));
      }
    }
  }
  if (mode == 0 && state.iterations() > 0) {
    state.counters["launches_saved_per_flush"] =
        static_cast<double>(stats.launches_saved) /
        static_cast<double>(state.iterations());
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(std::string(mode == 0 ? "per-base batched" : "per-query") +
                 ", K=" + std::to_string(k) + ", G=4 bases");
}
BENCHMARK(bm_serve_multibase)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void bm_serve_sharded(benchmark::State& state) {
  // Sharded vs unsharded serving: K queries through a Router over N
  // row-range shards (N=1 is the unsharded engine — the baseline row).
  // The point mix draws 4 random keys per query, so at
  // N>1 nearly every query straddles shards — the worst case for the
  // scatter + carry-merge machinery, which the straddling_merges counter
  // makes visible; the sharded win on multi-core runners is per-shard
  // admission and flush independence. Answers are bit-identical across N
  // by contract (see the preamble check).
  const int k = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const Index n = 4096;
  const auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, k, n, 6);
  serve::Router<S> router(base, {.n_shards = shards});
  std::uint64_t merges = 0;
  for (auto _ : state) {
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (const auto& q : qs) tickets.push_back(router.submit(q));
    router.flush();
    for (const auto t : tickets) benchmark::DoNotOptimize(router.wait(t));
  }
  merges = router.router_stats().merges;
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["straddling_merges"] = static_cast<double>(merges);
  state.SetLabel("sharded router, N=" + std::to_string(shards) +
                 ", K=" + std::to_string(k) + ", point lookups");
}
// Iterations are pinned: the router is a long-lived server (the shard
// split is a one-time cost outside the loop, as in bm_serve_multibase) and
// its ticket ledger grows per submit, so the iteration count bounds memory.
BENCHMARK(bm_serve_sharded)
    ->Iterations(256)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

void bm_router_empty_flush(benchmark::State& state) {
  // The Router's live-chain index: flush() walks only the chains that
  // still have a non-final stage to advance, so one empty flush after N
  // served point queries costs O(in flight), not O(N) — the row should be
  // flat in N. A 2-shard sync router; 4-key point queries straddle the cut,
  // so every served query was a 2-stage chain that entered and left the
  // index.
  const auto served = static_cast<int>(state.range(0));
  const Index n = 4096;
  const auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, 64, n, 12);
  serve::Router<S> router(base, {.n_shards = 2});
  for (int i = 0; i < served; i += static_cast<int>(qs.size())) {
    for (const auto& q : qs) router.submit(q);
    router.flush();
  }
  for (auto _ : state) router.flush();
  state.counters["served"] = static_cast<double>(served);
  state.counters["straddling"] =
      static_cast<double>(router.router_stats().straddling);
  state.SetLabel("2-shard router, empty flush after " +
                 std::to_string(served) + " point queries");
}
// Iterations pinned: the N-query warm-up runs once, outside the timed loop.
BENCHMARK(bm_router_empty_flush)
    ->Iterations(2000)
    ->Arg(1024)
    ->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

void bm_serve_mixed_rw(benchmark::State& state) {
  // Mixed read/write serving through the Service interface: each tick
  // interleaves K point queries with M mutation batches (32 updates each,
  // 3:1 assigns to erases) against a live delta base, then redeems every
  // ticket. Arg0 = K (query rate per tick), Arg1 = M (mutation rate per
  // tick), Arg2 = shard count (1 = the unsharded engine). The M=0 rows are
  // the read-only baseline; the grid shows what live writes cost the read
  // path (delta-overlay probes) at each rate.
  const int k = static_cast<int>(state.range(0));
  const int muts = static_cast<int>(state.range(1));
  const int shards = static_cast<int>(state.range(2));
  const Index n = 4096;
  const auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  serve::Router<S> router(base, {.n_shards = shards});
  serve::Service<S>& svc = router;
  const auto qs = make_queries(0, k, n, 7);
  util::Xoshiro256 rng(8);
  auto random_vertex = [&] {
    return static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(n)));
  };
  const int gap = muts > 0 ? std::max(1, k / muts) : 0;
  for (auto _ : state) {
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (int i = 0; i < k; ++i) {
      tickets.push_back(svc.submit(qs[static_cast<std::size_t>(i)]));
      if (gap > 0 && i % gap == gap - 1) {
        sparse::UpdateBatch<double> ops;
        ops.reserve(32);
        for (int u = 0; u < 32; ++u) {
          if (u % 4 == 3) {
            ops.push_back(sparse::Update<double>::erased(random_vertex(),
                                                         random_vertex()));
          } else {
            ops.push_back(sparse::Update<double>::assign(
                random_vertex(), random_vertex(), rng.uniform(0.5, 1.5)));
          }
        }
        svc.mutate(ops);
      }
    }
    svc.flush();
    for (const auto t : tickets) benchmark::DoNotOptimize(svc.wait(t));
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["mutations_per_s"] = benchmark::Counter(
      static_cast<double>(muts > 0 ? k / gap : 0),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["final_epoch"] = static_cast<double>(svc.epoch());
  state.SetLabel("mixed r/w, K=" + std::to_string(k) + " reads, M=" +
                 std::to_string(muts) + " writes/tick, N=" +
                 std::to_string(shards) + " shards");
}
// Iterations pinned for the same reason as bm_serve_sharded: long-lived
// server, ticket ledger and delta epochs grow per tick.
BENCHMARK(bm_serve_mixed_rw)
    ->Iterations(64)
    ->Args({64, 0, 1})
    ->Args({64, 4, 1})
    ->Args({64, 16, 1})
    ->Args({8, 4, 1})
    ->Args({64, 0, 4})
    ->Args({64, 4, 4});

void bm_serve_latency(benchmark::State& state) {
  // End-to-end query latency through the async 1-shard Router, reported as
  // nearest-rank percentiles from the process-wide telemetry histogram
  // (serve.query_latency_ns: submit enqueue → result settled). These are
  // the BENCH_serve.json tail-latency rows the SLO story reads; the
  // histogram's log buckets give ≤ 2^-4 relative error per quantile.
  const int k = static_cast<int>(state.range(0));
  const Index n = 4096;
  auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, k, n, 9);
  util::metrics::set_enabled(true);
  util::metrics::Registry::instance().reset_values();
  for (auto _ : state) {
    serve::Router<S> ex(base, {.executor = {.async = true}});
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (const auto& q : qs) tickets.push_back(ex.submit(q));
    for (const auto t : tickets) benchmark::DoNotOptimize(ex.wait(t));
  }
  const auto lat = util::metrics::Registry::instance().histogram_snapshot(
      "serve.query_latency_ns");
  if (lat.count > 0) {
    state.counters["p50_ns"] = static_cast<double>(lat.percentile(0.50));
    state.counters["p95_ns"] = static_cast<double>(lat.percentile(0.95));
    state.counters["p99_ns"] = static_cast<double>(lat.percentile(0.99));
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel("async 1-shard router tail latency, K=" +
                 std::to_string(k));
}
BENCHMARK(bm_serve_latency)->Arg(8)->Arg(64);

void bm_serve_telemetry_overhead(benchmark::State& state) {
  // The telemetry guardrail: the same synchronous submit+flush+wait
  // workload through a 1-shard Router with telemetry fully off (Arg 0),
  // counters/histograms only
  // (Arg 1), and full per-query tracing (Arg 2). Row 0 vs row 1 is the
  // always-on production cost and must stay in the noise; row 2 prices the
  // clock reads + ring appends tracing adds per query.
  const int mode = static_cast<int>(state.range(0));
  const int k = 64;
  const Index n = 4096;
  auto base = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto qs = make_queries(0, k, n, 10);
  util::metrics::set_enabled(mode >= 1);
  serve::trace::Tracer::instance().configure(
      {.enabled = mode >= 2, .sample_every = 1});
  for (auto _ : state) {
    serve::Router<S> ex(base);
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (const auto& q : qs) tickets.push_back(ex.submit(q));
    for (const auto t : tickets) benchmark::DoNotOptimize(ex.wait(t));
  }
  serve::trace::Tracer::instance().configure({});  // restore: tracing off
  util::metrics::set_enabled(true);                // restore: metrics on
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(k), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(std::string(mode == 0   ? "telemetry off"
                             : mode == 1 ? "counters only"
                                         : "full tracing") +
                 ", K=" + std::to_string(k));
}
BENCHMARK(bm_serve_telemetry_overhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  print_preamble();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

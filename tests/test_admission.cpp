// Tests for adaptive admission (serve/admission.hpp): the controller is a
// pure component, so these tests drive it with INJECTED timings and assert
// deterministic convergence toward the latency target; the engine
// integration (1-shard and sharded Routers) asserts the live limits move
// while answers stay bit-identical (admission only re-slices the queue).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace std::chrono_literals;
using S = semiring::PlusTimes<double>;
using sparse::Index;
using sparse::Matrix;
using sparse::Triple;

serve::AdmissionController make_ctrl(std::chrono::microseconds target,
                                     std::uint64_t init_flops = 1u << 20) {
  return serve::AdmissionController({.latency_target = target}, {init_flops});
}

TEST(AdmissionController, DisabledControllerNeverMoves) {
  auto c = make_ctrl(0us, 12345);
  EXPECT_FALSE(c.enabled());
  c.observe(1 << 20, 10ms);
  EXPECT_EQ(c.limits().max_batch_flops, 12345u);
}

TEST(AdmissionController, ConvergesToTargetOverFlopCost) {
  // Constant injected cost: 10 ns per flop. A 1 ms target admits exactly
  // 100,000 flops once the EWMA settles; convergence is geometric and
  // fully deterministic.
  auto c = make_ctrl(1000us);
  ASSERT_TRUE(c.enabled());
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t flops = 50'000;
    c.observe(flops, std::chrono::nanoseconds(flops * 10));
  }
  EXPECT_NEAR(c.ns_per_flop(), 10.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(c.limits().max_batch_flops), 100'000.0,
              1.0);
}

TEST(AdmissionController, SlowerSamplesShrinkTheBudget) {
  auto fast = make_ctrl(500us);
  auto slow = make_ctrl(500us);
  for (int i = 0; i < 32; ++i) {
    fast.observe(10'000, std::chrono::nanoseconds(10'000 * 2));
    slow.observe(10'000, std::chrono::nanoseconds(10'000 * 8));
  }
  EXPECT_GT(fast.limits().max_batch_flops, slow.limits().max_batch_flops);
  // 4× the cost ⇒ ¼ the budget, exactly, at the converged estimates.
  EXPECT_NEAR(static_cast<double>(fast.limits().max_batch_flops),
              4.0 * static_cast<double>(slow.limits().max_batch_flops), 4.0);
}

TEST(AdmissionController, ClampsStopRunawayAdjustment) {
  auto c = make_ctrl(1000000us);  // absurd 1 s target
  c.observe(1 << 20, std::chrono::nanoseconds(1));  // absurdly fast
  EXPECT_LE(c.limits().max_batch_flops, (std::uint64_t{1} << 40));
  auto d = make_ctrl(1us);
  for (int i = 0; i < 8; ++i) {
    d.observe(1 << 20, 100ms);  // absurdly slow
  }
  EXPECT_GE(d.limits().max_batch_flops, std::uint64_t{1} << 10);
}

TEST(AdmissionController, TinyBatchesAreFixedCostNoiseAndIgnored) {
  auto c = make_ctrl(1000us, 2048);
  c.observe(8, 10ms);  // below min_sample_flops
  EXPECT_EQ(c.ns_per_flop(), 0.0);
  EXPECT_EQ(c.limits().max_batch_flops, 2048u);
  EXPECT_EQ(c.samples(), 0u);  // a starved controller is visible
}

TEST(AdmissionController, PercentileTracksTheSampleDistribution) {
  auto c = make_ctrl(1000us);
  // 19 fast batches at 10 ns/flop, 1 slow at 80 ns/flop: p95 lands on the
  // highest of the fast samples by nearest rank (rank 19 of 20), p100 on
  // the slow one. Expected values go through the same bucket math the
  // histogram stores (1/1024 fixed point, bucket floors).
  for (int i = 0; i < 19; ++i) {
    c.observe(10'000, std::chrono::nanoseconds(100'000));  // 10 ns/flop
  }
  c.observe(10'000, std::chrono::nanoseconds(800'000));  // 80 ns/flop
  EXPECT_EQ(c.samples(), 20u);
  const auto floor_of = [](double ns_per_flop) {
    return static_cast<double>(util::metrics::bucket_floor(
               util::metrics::bucket_index(static_cast<std::uint64_t>(
                   ns_per_flop * 1024.0)))) /
           1024.0;
  };
  EXPECT_EQ(c.ns_per_flop_percentile(0.5), floor_of(10.0));
  EXPECT_EQ(c.p95_ns_per_flop(), floor_of(10.0));
  EXPECT_EQ(c.ns_per_flop_percentile(1.0), floor_of(80.0));
}

TEST(AdmissionController, P95ModeSteersByTheTailNotTheMean) {
  // Same traffic into a mean-steered and a tail-steered controller: 9 in
  // 10 batches run at 10 ns/flop, 1 in 10 at 100 ns/flop. The EWMA settles
  // near the mix; the p95 budget prices every batch at the slow cost, so
  // the tail-aware budget is decisively smaller.
  serve::AdmissionController mean({.latency_target = 1000us, .gain = 0.25},
                                  {1u << 20});
  serve::AdmissionController tail(
      {.latency_target = 1000us, .gain = 0.25, .use_p95 = true}, {1u << 20});
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 9; ++i) {
      mean.observe(10'000, std::chrono::nanoseconds(100'000));
      tail.observe(10'000, std::chrono::nanoseconds(100'000));
    }
    mean.observe(10'000, std::chrono::nanoseconds(1'000'000));
    tail.observe(10'000, std::chrono::nanoseconds(1'000'000));
  }
  // p95 of {90×10, 10×100} ns/flop is the 100 ns/flop bucket (rank 95).
  EXPECT_GE(tail.p95_ns_per_flop(), 90.0);
  // 1 ms / ~100 ns-per-flop ≈ 10k flops vs the mean-steered budget of
  // roughly 1 ms / ~19 ns-per-flop ≈ 50k: the tail budget is the
  // conservative one.
  EXPECT_LT(tail.limits().max_batch_flops,
            mean.limits().max_batch_flops / 2);
  EXPECT_NEAR(static_cast<double>(tail.limits().max_batch_flops),
              1'000'000.0 / tail.p95_ns_per_flop(), 2.0);
}

TEST(AdmissionController, P95ModeFallsBackToEwmaWhileStarved) {
  serve::AdmissionController c(
      {.latency_target = 1000us, .use_p95 = true}, {1u << 20});
  c.observe(8, 10ms);  // below min_sample_flops: no usable sample yet
  EXPECT_EQ(c.samples(), 0u);
  EXPECT_EQ(c.limits().max_batch_flops, std::uint64_t{1} << 20);
}

// --------------------------------------------------------------------------
// Engine integration: each shard worker's live limits follow its
// controller; results are untouched (admission is answer-invariant by the
// serving contract).

/// A base whose every row has exactly 4 entries (admission flops are then
/// 4 · nnz(lhs), exactly).
Matrix<double> uniform_base(Index n) {
  std::vector<Triple<double>> t;
  for (Index r = 0; r < n; ++r) {
    for (Index j = 0; j < 4; ++j) {
      t.push_back({r, (r + j * 7) % n, 1.0 + static_cast<double>(r + j)});
    }
  }
  return Matrix<double>::from_triples<S>(n, n, std::move(t));
}

serve::Query<S> point_query(Index n, int width, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Triple<double>> t;
  for (int e = 0; e < width; ++e) {
    t.push_back({0, (static_cast<Index>(rng.bounded(
                         static_cast<std::uint64_t>(n) / 8)) *
                         8 +
                     e) %
                        n,
                 rng.uniform(0.5, 1.5)});
  }
  return serve::Query<S>::analytic(
      Matrix<double>::from_unique_triples(1, n, std::move(t)));
}

TEST(ExecutorAdaptive, StaticConfigKeepsLimitsFixed) {
  const auto base = uniform_base(64);
  serve::Router<S> ex(base, {.executor = {.max_batch_flops = 4096}});
  for (int i = 0; i < 8; ++i) {
    ex.submit(point_query(64, 4, 10 + static_cast<std::uint64_t>(i)));
  }
  ex.flush();
  EXPECT_EQ(ex.shard_executor(0).admission_limits().max_batch_flops, 4096u);
}

TEST(ExecutorAdaptive, LatencyTargetMovesLimitsAnswersUnchanged) {
  // Sync and async: the async flusher feeds the controller from its own
  // thread while this one submits, reads the limits and redeems tickets.
  const Index n = 256;
  const auto base = uniform_base(n);
  for (const bool async : {false, true}) {
    serve::Router<S> ex(
        base, {.executor = {.async = async, .latency_target = 50us}});
    std::vector<std::size_t> tickets;
    std::vector<serve::Query<S>> qs;
    for (int i = 0; i < 48; ++i) {
      qs.push_back(point_query(n, 8, 100 + static_cast<std::uint64_t>(i)));
      tickets.push_back(ex.submit(qs.back()));
      (void)ex.shard_executor(0).admission_limits();
    }
    ex.flush();
    // Bit-identical results regardless of how admission sliced the queue.
    for (std::size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(ex.wait(tickets[i]), serve::run_single(base, qs[i]))
          << "query=" << i << " async=" << async;
    }
    // Sync mode flushed all 48 at once, so the controller has seen ≥ 1
    // usable sample and the limit is derived (not the config static); async
    // batches may all be too small to count. Either way it stays within the
    // clamp bounds. The exact value is timing-dependent — the deterministic
    // convergence story is the pure-controller tests above.
    const auto lim = ex.shard_executor(0).admission_limits();
    EXPECT_GE(lim.max_batch_flops, std::uint64_t{1} << 10);
    EXPECT_LE(lim.max_batch_flops, std::uint64_t{1} << 40);
    EXPECT_EQ(ex.stats().queries, qs.size());
  }
}

TEST(ExecutorAdaptive, AdmissionStateIsExportedAsGauges) {
  namespace m = hyperspace::util::metrics;
  if (!m::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  m::set_enabled(true);
  const Index n = 256;
  const auto base = uniform_base(n);
  serve::Router<S> ex(base, {.executor = {.latency_target = 50us,
                                          .admission_use_p95 = true}});
  for (int i = 0; i < 32; ++i) {
    ex.submit(point_query(n, 8, 300 + static_cast<std::uint64_t>(i)));
  }
  ex.flush();
  auto& reg = m::Registry::instance();
  const auto lim = ex.shard_executor(0).admission_limits();
  EXPECT_EQ(reg.gauge_value("serve.admission.shard0.max_batch_flops"),
            static_cast<double>(lim.max_batch_flops));
  // The sample-count gauge makes a starved controller visible; here the
  // batches were big enough to count.
  EXPECT_GE(reg.gauge_value("serve.admission.shard0.samples"), 1.0);
}

TEST(ExecutorAdaptive, ShardedRouterExportsOneGaugeSetPerShard) {
  // Regression: the admission gauges used to be a single static unscoped
  // set, so a 4-shard router's workers fought last-batch-wins over one
  // "serve.admission.*" triple. Each shard worker now binds its own
  // "serve.admission.shard<N>.*" set.
  namespace m = hyperspace::util::metrics;
  if (!m::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  m::set_enabled(true);
  auto& reg = m::Registry::instance();
  reg.reset_values();
  const Index n = 256;
  const auto base = uniform_base(n);
  serve::Router<S> router(base, {.n_shards = 4});
  // Width-8 point queries straddle shards, so every shard worker runs
  // telemetered batches and binds its own gauges.
  for (int i = 0; i < 32; ++i) {
    router.submit(point_query(n, 8, 500 + static_cast<std::uint64_t>(i)));
  }
  router.flush();
  ASSERT_EQ(router.n_shards(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string prefix =
        "serve.admission.shard" + std::to_string(s) + ".";
    const auto lim = router.shard_executor(s).admission_limits();
    EXPECT_EQ(reg.gauge_value(prefix + "max_batch_flops"),
              static_cast<double>(lim.max_batch_flops))
        << prefix;
  }
  // The four sets are distinct registry entries, not one shared set: the
  // legacy unscoped names are never touched by any engine (reset to 0
  // above, still 0 now).
  EXPECT_EQ(reg.gauge_value("serve.admission.max_batch_flops"), 0.0);
}

}  // namespace

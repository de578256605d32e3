// Tests for the sharded serving stack (sparse/shard.hpp,
// serve/shard_map.hpp, serve/router.hpp): shard-map splitting and
// translation, the carry-seeded fold chain, and the router's
// scatter-gather — sharded execution must be BIT-identical to unsharded
// per-query execution for every semiring, strategy, thread count, and
// shard count, across ragged multi-tenant batches and every shard-boundary
// edge case (straddling queries, empty shards, single-row shards,
// hypersparse DCSR shards, masks spanning cuts).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "sparse/shard.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::sparse;
using hyperspace::testing::ThreadGuard;
using S = semiring::PlusTimes<double>;

template <semiring::Semiring Sr, typename Gen>
Matrix<typename Sr::value_type> random_matrix(Index nrows, Index ncols,
                                              int nnz, std::uint64_t seed,
                                              Gen&& entry) {
  util::Xoshiro256 rng(seed);
  std::vector<Triple<typename Sr::value_type>> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back({static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(nrows))),
                 static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(ncols))),
                 entry(rng)});
  }
  return Matrix<typename Sr::value_type>::template from_triples<Sr>(
      nrows, ncols, std::move(t));
}

double dbl_entry(util::Xoshiro256& r) { return r.uniform(-1.0, 1.0); }

/// A ragged batch exercising every query kind: unmasked, plain-masked,
/// complement-masked, empty, zero-row, 1-row, and select. Dense enough
/// lhs rows that most queries straddle every shard cut — the masked ones
/// included, so masks provably span shard boundaries.
template <semiring::Semiring Sr, typename Gen>
std::vector<serve::Query<Sr>> ragged_batch(Index n, std::uint64_t seed,
                                           Gen&& entry) {
  using Q = serve::Query<Sr>;
  std::vector<Q> qs;
  qs.push_back(Q::analytic(random_matrix<Sr>(6, n, 40, seed + 1, entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(5, n, 30, seed + 2, entry),
                                random_matrix<Sr>(5, n, 60, seed + 3, entry)));
  qs.push_back(Q::masked(
      random_matrix<Sr>(4, n, 25, seed + 4, entry),
      random_matrix<Sr>(4, n, 20, seed + 5, entry), {.complement = true}));
  qs.push_back(Q::analytic(random_matrix<Sr>(2, n, 0, seed + 6, entry)));
  qs.push_back(
      Q::analytic(random_matrix<Sr>(0, n, 0, seed + 7, entry)));  // zero rows
  qs.push_back(Q::analytic(random_matrix<Sr>(1, n, 8, seed + 8, entry)));
  qs.push_back(Q::select({0, n / 2, n - 1}, n));
  return qs;
}

// --------------------------------------------------------------------------
// Shard-partition primitives.

TEST(ShardPrimitives, EvenCutsCoverAndBalance) {
  const auto cuts = even_cuts(10, 4);
  EXPECT_EQ(cuts, (std::vector<Index>{0, 3, 6, 8, 10}));
  EXPECT_EQ(even_cuts(4, 4), (std::vector<Index>{0, 1, 2, 3, 4}));
  EXPECT_EQ(even_cuts(0, 2), (std::vector<Index>{0, 0, 0}));
  EXPECT_EQ(shard_of(cuts, 0), 0u);
  EXPECT_EQ(shard_of(cuts, 2), 0u);
  EXPECT_EQ(shard_of(cuts, 3), 1u);
  EXPECT_EQ(shard_of(cuts, 9), 3u);
  EXPECT_THROW(even_cuts(4, 0), std::invalid_argument);
}

TEST(ShardPrimitives, SplitColsRebasesAndReconstructs) {
  const auto a = random_matrix<S>(12, 40, 150, 5, dbl_entry);
  const std::vector<Index> cuts{0, 7, 7, 25, 40};  // zero-width part included
  const auto parts = split_cols(a, cuts);
  ASSERT_EQ(parts.size(), 4u);
  Index total_nnz = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].nrows(), 12);
    EXPECT_EQ(parts[p].ncols(), cuts[p + 1] - cuts[p]);
    total_nnz += parts[p].nnz();
    for (const auto& t : parts[p].to_triples()) {
      EXPECT_EQ(a.get(t.row, t.col + cuts[p]), t.val);
    }
  }
  EXPECT_EQ(total_nnz, a.nnz());
  EXPECT_EQ(parts[1].nnz(), 0);  // the zero-width part
  EXPECT_THROW(split_cols(a, std::vector<Index>{0, 41}),
               std::invalid_argument);
}

TEST(ShardMap, SplitsTranslatesAndScatters) {
  const Index n = 20;
  const auto base = random_matrix<S>(n, 16, 80, 7, dbl_entry);
  auto map = serve::ShardMap<double>::split(base, 3);
  EXPECT_EQ(map.n_shards(), 3u);
  EXPECT_EQ(map.nrows(), n);
  EXPECT_EQ(map.ncols(), 16);
  // Shard s holds global rows [cuts[s], cuts[s+1]) as local rows.
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& sh = map.shard(s);
    EXPECT_EQ(sh.nrows(), map.height(s));
    EXPECT_EQ(sh.ncols(), 16);
    for (const auto& t : sh.to_triples()) {
      EXPECT_EQ(base.get(t.row + map.cuts()[s], t.col), t.val);
    }
  }
  // Scatter: sub-lhs columns rebase into shard-local row space; shards
  // without lhs support are skipped.
  std::vector<Triple<double>> lt{{0, 2, 1.5}, {0, n - 1, 2.5}};
  const auto lhs = Matrix<double>::from_unique_triples(1, n, std::move(lt));
  const auto sc = map.scatter(lhs);
  ASSERT_EQ(sc.shards.size(), 2u);  // first and last shard only
  EXPECT_EQ(sc.shards.front(), 0u);
  EXPECT_EQ(sc.shards.back(), 2u);
  EXPECT_EQ(sc.lhs.front().get(0, 2), 1.5);
  EXPECT_EQ(sc.lhs.back().get(0, n - 1 - map.cuts()[2]), 2.5);
}

// --------------------------------------------------------------------------
// The carry-seeded fold chain — the gather's determinism keystone. A
// grouped ⊕-merge of independently folded partials would differ in the
// last ulp for float ⊕; the seed chain must not.

TEST(CarryChain, SeededRunSingleContinuesTheFoldBitExactly) {
  const Index n = 64;
  // Dense-ish operands: many output positions fold ≥ 2 products from BOTH
  // sides of the cut, so any fold regrouping would show.
  const auto base = random_matrix<S>(n, 24, 900, 11, dbl_entry);
  const auto lhs = random_matrix<S>(8, n, 200, 12, dbl_entry);
  for (const Index cut : {Index{1}, n / 3, n / 2, n - 1}) {
    const std::vector<Index> cuts{0, cut, n};
    const auto shards = split_rows(base, cuts);
    const auto parts = split_cols(lhs, cuts);
    for (const auto strat : {MxmStrategy::kGustavson, MxmStrategy::kHash,
                             MxmStrategy::kSorted}) {
      for (const int nt : {1, 8}) {
        ThreadGuard guard(nt);
        serve::Query<S> q0;
        q0.lhs = parts[0];
        const auto partial = serve::run_single(shards[0], q0, strat);
        serve::Query<S> q1;
        q1.lhs = parts[1];
        q1.carry = partial;
        const auto chained = serve::run_single(shards[1], q1, strat);
        serve::Query<S> whole;
        whole.lhs = lhs;
        EXPECT_EQ(chained, serve::run_single(base, whole, strat))
            << "cut=" << cut << " strat=" << static_cast<int>(strat)
            << " threads=" << nt;
      }
    }
  }
}

TEST(CarryChain, CarryRowsAbsentFromLhsPassThrough) {
  // lhs row 0 touches only shard 0, row 1 only shard 1: each stage's
  // launch must pass the other row's carry through verbatim.
  const Index n = 8;
  const auto base = random_matrix<S>(n, 6, 30, 21, dbl_entry);
  const std::vector<Index> cuts{0, 4, 8};
  const auto shards = split_rows(base, cuts);
  const auto lhs = Matrix<double>::from_unique_triples(
      2, n, {{0, 1, 2.0}, {0, 2, 3.0}, {1, 5, 4.0}, {1, 7, 5.0}});
  const auto parts = split_cols(lhs, cuts);
  ASSERT_EQ(parts[0].nnz(), 2);
  ASSERT_EQ(parts[1].nnz(), 2);
  serve::Query<S> q0;
  q0.lhs = parts[0];
  serve::Query<S> q1;
  q1.lhs = parts[1];
  q1.carry = serve::run_single(shards[0], q0);
  serve::Query<S> whole;
  whole.lhs = lhs;
  EXPECT_EQ(serve::run_single(shards[1], q1), serve::run_single(base, whole));
}

TEST(CarryChain, MaskedChainMatchesMaskedUnsharded) {
  const Index n = 48;
  const auto base = random_matrix<S>(n, 32, 500, 31, dbl_entry);
  const auto lhs = random_matrix<S>(6, n, 120, 32, dbl_entry);
  const auto mask = random_matrix<S>(6, 32, 90, 33, dbl_entry);
  const std::vector<Index> cuts{0, n / 2, n};
  const auto shards = split_rows(base, cuts);
  const auto parts = split_cols(lhs, cuts);
  for (const bool comp : {false, true}) {
    serve::Query<S> q0;
    q0.kind = serve::QueryKind::kMtimesMasked;
    q0.lhs = parts[0];
    q0.mask = mask;
    q0.desc = {.complement = comp};
    serve::Query<S> q1 = q0;
    q1.lhs = parts[1];
    q1.carry = serve::run_single(shards[0], q0);
    serve::Query<S> whole = q0;
    whole.lhs = lhs;
    EXPECT_EQ(serve::run_single(shards[1], q1),
              serve::run_single(base, whole))
        << "complement=" << comp;
  }
}

// --------------------------------------------------------------------------
// Router at every shard count ≡ unsharded per-query execution — the
// acceptance sweep.

template <semiring::Semiring Sr, typename Gen>
void expect_router_equals_unsharded(Index n, std::uint64_t seed, Gen&& entry,
                                    bool async) {
  const auto base = random_matrix<Sr>(n, n, 6 * static_cast<int>(n), seed,
                                      entry);
  const auto queries = ragged_batch<Sr>(n, seed, entry);
  for (const int shards : {1, 2, 4}) {
    for (const int nt : {1, 2, 8}) {
      ThreadGuard guard(nt);
      typename serve::Router<Sr>::Config cfg;
      cfg.n_shards = shards;
      cfg.executor.async = async;
      serve::Router<Sr> router(base, cfg);
      std::vector<std::size_t> tickets;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        tickets.push_back(router.submit(
            static_cast<serve::TenantId>(i % 3), queries[i]));
      }
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(router.wait(tickets[i]),
                  serve::run_single(base, queries[i]))
            << "shards=" << shards << " threads=" << nt << " query=" << i
            << " async=" << async;
      }
      const auto rs = router.router_stats();
      EXPECT_EQ(rs.queries, queries.size());
      EXPECT_EQ(rs.single_shard + rs.straddling, rs.queries);
      EXPECT_EQ(rs.stage_submits, rs.queries + rs.merges);
      if (shards == 1) {
        EXPECT_EQ(rs.straddling, 0u);
        EXPECT_EQ(rs.stage_submits, rs.queries);
      }
      router.shutdown();
    }
  }
}

TEST(RouterVsUnsharded, ArithmeticAllThreadAndShardCounts) {
  expect_router_equals_unsharded<semiring::PlusTimes<double>>(
      48, 101, dbl_entry, false);
}

TEST(RouterVsUnsharded, TropicalAllThreadAndShardCounts) {
  expect_router_equals_unsharded<semiring::MinPlus<double>>(
      48, 202, [](util::Xoshiro256& r) { return r.uniform(0.0, 10.0); },
      false);
}

TEST(RouterVsUnsharded, SetSemiringAllThreadAndShardCounts) {
  expect_router_equals_unsharded<semiring::UnionIntersect>(
      40, 303,
      [](util::Xoshiro256& r) {
        return semiring::ValueSet{static_cast<std::int64_t>(r.bounded(16)),
                                  static_cast<std::int64_t>(r.bounded(16))};
      },
      false);
}

TEST(RouterVsUnsharded, AsyncExecutorsAllShardCounts) {
  expect_router_equals_unsharded<semiring::PlusTimes<double>>(
      40, 404, dbl_entry, true);
}

TEST(RouterVsUnsharded, EveryStrategyBitIdentical) {
  const Index n = 40;
  const auto base = random_matrix<S>(n, n, 240, 7, dbl_entry);
  const auto queries = ragged_batch<S>(n, 7, dbl_entry);
  for (const auto strat : {MxmStrategy::kGustavson, MxmStrategy::kHash,
                           MxmStrategy::kSorted}) {
    typename serve::Router<S>::Config cfg;
    cfg.n_shards = 3;
    cfg.executor.strategy = strat;
    serve::Router<S> router(base, cfg);
    std::vector<std::size_t> tickets;
    for (const auto& q : queries) tickets.push_back(router.submit(q));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(router.wait(tickets[i]),
                serve::run_single(base, queries[i], strat))
          << "strategy=" << static_cast<int>(strat) << " query=" << i;
    }
  }
}

// --------------------------------------------------------------------------
// Shard-boundary edge cases.

TEST(RouterEdgeCases, StraddlingPointQueriesMergeOnce) {
  const Index n = 32;
  const auto base = random_matrix<S>(n, 24, 300, 41, dbl_entry);
  typename serve::Router<S>::Config cfg;
  cfg.cuts = {0, 16, 32};
  serve::Router<S> router(base, cfg);
  // One query entirely in shard 0, one entirely in shard 1, one straddling.
  std::vector<serve::Query<S>> qs;
  qs.push_back(serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      1, n, {{0, 3, 2.0}, {0, 11, 1.0}})));
  qs.push_back(serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      1, n, {{0, 20, 3.0}, {0, 30, 1.5}})));
  qs.push_back(serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      1, n, {{0, 15, 2.5}, {0, 16, 0.5}})));
  std::vector<std::size_t> tickets;
  for (const auto& q : qs) tickets.push_back(router.submit(q));
  router.flush();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(*router.poll(tickets[i]), serve::run_single(base, qs[i]))
        << "query=" << i;
  }
  const auto rs = router.router_stats();
  EXPECT_EQ(rs.single_shard, 2u);
  EXPECT_EQ(rs.straddling, 1u);
  EXPECT_EQ(rs.merges, 1u);
  EXPECT_EQ(rs.stage_submits, 4u);  // 1 + 1 + 2
}

TEST(RouterEdgeCases, AsyncStraddlingReadSettlesUnderPollAlone) {
  // Work-conserving shard flushers: a straddling read settles with the
  // caller only spinning on poll() — no wait(), no flush(). Each poll that
  // sees stage 0 settled submits stage 1, and shard 1's idle flusher
  // launches it at once. Reads go one at a time, so every stage is a lone
  // query on an otherwise idle shard.
  const Index n = 32;
  const auto base = random_matrix<S>(n, 24, 300, 43, dbl_entry);
  typename serve::Router<S>::Config cfg;
  cfg.cuts = {0, 16, 32};
  cfg.executor.async = true;
  serve::Router<S> router(base, cfg);
  for (int i = 0; i < 4; ++i) {
    const auto q = serve::Query<S>::analytic(
        Matrix<double>::from_unique_triples(
            1, n, {{0, 15 - i, 2.5}, {0, 16 + i, 0.5}}));
    const auto t = router.submit(q);
    const sparse::Matrix<double>* r = nullptr;
    while ((r = router.poll(t)) == nullptr) std::this_thread::yield();
    EXPECT_EQ(*r, serve::run_single(base, q)) << "read=" << i;
  }
  const auto rs = router.router_stats();
  EXPECT_EQ(rs.straddling, 4u);
  EXPECT_EQ(rs.merges, 4u);
  EXPECT_EQ(router.pending(), 0u);
}

TEST(RouterEdgeCases, EmptyAndSingleRowShards) {
  const Index n = 16;
  const auto base = random_matrix<S>(n, n, 90, 51, dbl_entry);
  // Zero-height shard (cuts 4..4), single-row shards (4..5, 5..6).
  typename serve::Router<S>::Config cfg;
  cfg.cuts = {0, 4, 4, 5, 6, n};
  serve::Router<S> router(base, cfg);
  const auto queries = ragged_batch<S>(n, 52, dbl_entry);
  std::vector<std::size_t> tickets;
  for (const auto& q : queries) tickets.push_back(router.submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(router.wait(tickets[i]), serve::run_single(base, queries[i]))
        << "query=" << i;
  }
  // The zero-height shard can never be touched.
  EXPECT_EQ(router.shard_executor(1).stats().queries, 0u);
}

TEST(RouterEdgeCases, ShardWithNoBaseEntries) {
  // Shard 1's row range holds no base entries: sub-queries routed there
  // contribute zero flops and the carry passes through unchanged.
  std::vector<Triple<double>> bt;
  for (Index r = 0; r < 8; ++r) {
    if (r < 3 || r > 5) bt.push_back({r, r % 4, 1.0 + r});
  }
  const auto base = Matrix<double>::from_unique_triples(8, 4, std::move(bt));
  typename serve::Router<S>::Config cfg;
  cfg.cuts = {0, 3, 6, 8};
  serve::Router<S> router(base, cfg);
  const auto lhs = Matrix<double>::from_unique_triples(
      2, 8, {{0, 1, 2.0}, {0, 4, 3.0}, {1, 4, 1.0}, {1, 7, 2.0}});
  const auto q = serve::Query<S>::analytic(lhs);
  const auto t = router.submit(q);
  EXPECT_EQ(router.wait(t), serve::run_single(base, q));
}

TEST(RouterEdgeCases, HypersparseDcsrShards) {
  // A hypersparse base (2^36 rows, DCSR): shards stay DCSR, scatter and
  // chain stay exact, the flat hash serves the products.
  const Index huge = Index{1} << 36;
  const auto base = Matrix<double>::from_unique_triples(
      huge, 48,
      {{5, 3, 2.0},
       {Index{1} << 20, 7, 3.0},
       {(Index{1} << 35) + 9, 3, 4.0},
       {huge - 1, 40, 5.0}});
  ASSERT_EQ(base.format(), Format::kDcsr);
  typename serve::Router<S>::Config cfg;
  cfg.n_shards = 4;
  serve::Router<S> router(base, cfg);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router.shard_executor(s).base().format(), Format::kDcsr);
  }
  std::vector<serve::Query<S>> qs;
  // Straddles the first and last shard; folds two products into column 3.
  qs.push_back(serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      1, huge, {{0, 5, 2.0}, {0, (Index{1} << 35) + 9, 3.0}})));
  qs.push_back(serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      1, huge, {{0, Index{1} << 20, 1.5}, {0, huge - 1, 2.5}})));
  qs.push_back(serve::Query<S>::select({5, huge - 1}, huge));
  std::vector<std::size_t> tickets;
  for (const auto& q : qs) tickets.push_back(router.submit(q));
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(router.wait(tickets[i]), serve::run_single(base, qs[i]))
        << "query=" << i;
  }
  EXPECT_GE(router.router_stats().straddling, 2u);
}

TEST(RouterEdgeCases, MaskSpanningShardBoundaries) {
  const Index n = 24;
  const auto base = random_matrix<S>(n, n, 200, 61, dbl_entry);
  typename serve::Router<S>::Config cfg;
  cfg.cuts = {0, 8, 16, n};
  serve::Router<S> router(base, cfg);
  // Straddling lhs under both mask senses; mask columns cover the full
  // output space (output columns are unsharded, so the same mask applies
  // at every stage).
  for (const bool comp : {false, true}) {
    auto q = serve::Query<S>::masked(
        random_matrix<S>(3, n, 30, 62, dbl_entry),
        random_matrix<S>(3, n, 50, 63, dbl_entry), {.complement = comp});
    const auto t = router.submit(q);
    EXPECT_EQ(router.wait(t), serve::run_single(base, q))
        << "complement=" << comp;
  }
}

// --------------------------------------------------------------------------
// The 1-shard router is the unsharded engine: one flush, one launch.

TEST(RouterOneShard, PassThroughMatchesExecutorStats) {
  // One sync flush of K queries through the 1-shard router must equal ONE
  // serve::run_batch call over the same queries: the same answers and the
  // same ServeStats, launch for launch — nothing duplicated, re-split or
  // merged on the way through the router and its shard worker.
  const Index n = 32;
  const auto base = random_matrix<S>(n, n, 180, 71, dbl_entry);
  const auto queries = ragged_batch<S>(n, 71, dbl_entry);

  serve::Router<S> router(base, {});
  std::vector<std::size_t> tickets;
  for (const auto& q : queries) tickets.push_back(router.submit(q));
  router.flush();

  serve::ServeStats a;
  const auto want =
      serve::run_batch<S>(base, queries, MxmStrategy::kAuto, &a);
  ASSERT_EQ(want.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(router.wait(tickets[i]), want[i]) << "query=" << i;
  }
  const auto b = router.stats();
  EXPECT_EQ(b.queries, a.queries);
  EXPECT_EQ(b.batches, a.batches);
  EXPECT_EQ(b.batches, 1u);
  EXPECT_EQ(b.kernel_launches, a.kernel_launches);
  EXPECT_EQ(b.launches_saved, a.launches_saved);
  EXPECT_EQ(b.rows_coalesced, a.rows_coalesced);
  EXPECT_EQ(b.flops_kept, a.flops_kept);
  EXPECT_EQ(b.flops_skipped, a.flops_skipped);
  EXPECT_EQ(b.mutations, a.mutations);
  EXPECT_EQ(b.epoch, a.epoch);
  EXPECT_EQ(router.router_stats().merges, 0u);
}

TEST(Router, ShardedFlopAccountingPartitionsUnsharded) {
  // The flop totals across shard workers must equal the 1-shard engine's
  // exactly — each product is counted in exactly one stage, carry seeding
  // adds none, and (since flops_kept counts unmasked products too) the
  // partition is independent of how masked and unmasked sub-queries
  // happened to share batches.
  const Index n = 40;
  const auto base = random_matrix<S>(n, n, 260, 81, dbl_entry);
  const auto queries = ragged_batch<S>(n, 81, dbl_entry);
  serve::Router<S> one(base, {});
  for (const auto& q : queries) one.submit(q);
  one.flush();
  serve::Router<S> router(base, {.n_shards = 4});
  for (const auto& q : queries) router.submit(q);
  router.flush();
  EXPECT_EQ(router.stats().flops_kept, one.stats().flops_kept);
  EXPECT_EQ(router.stats().flops_skipped, one.stats().flops_skipped);
}

TEST(Router, TenantStatsAggregateAcrossShards) {
  const Index n = 24;
  const auto base = random_matrix<S>(n, n, 150, 91, dbl_entry);
  serve::Router<S> router(base, {.n_shards = 2});
  const auto q1 = serve::Query<S>::analytic(Matrix<double>::from_unique_triples(
      2, n, {{0, 2, 1.0}, {0, 20, 2.0}, {1, 5, 3.0}}));  // straddles the cut
  const auto q2 = serve::Query<S>::select({1}, n);        // single shard
  router.submit(1, q1);
  router.submit(2, q2);
  router.flush();
  (void)router.wait(0);
  (void)router.wait(1);
  router.flush();
  const auto t1 = router.tenant_stats(1);
  const auto t2 = router.tenant_stats(2);
  EXPECT_EQ(t1.queries, 2u);  // one sub-query per touched shard
  EXPECT_EQ(t2.queries, 1u);
  EXPECT_EQ(router.tenants(), (std::vector<serve::TenantId>{1, 2}));
  // Exact flops: sub-query flops partition the 1-shard engine's count.
  serve::Router<S> one(base, {});
  one.submit(1, q1);
  one.flush();
  EXPECT_EQ(one.tenant_stats(1).queries, 1u);
  EXPECT_EQ(t1.flops, one.tenant_stats(1).flops);
}

TEST(Router, ShapeMismatchesAndUnknownTicketsThrow) {
  const auto base = random_matrix<S>(16, 16, 60, 95, dbl_entry);
  serve::Router<S> router(base, {.n_shards = 2});
  EXPECT_THROW(router.submit(serve::Query<S>::analytic(
                   random_matrix<S>(2, 8, 4, 96, dbl_entry))),
               std::invalid_argument);
  EXPECT_THROW(
      router.submit(serve::Query<S>::masked(
          random_matrix<S>(2, 16, 4, 97, dbl_entry),
          random_matrix<S>(3, 16, 4, 98, dbl_entry))),
      std::invalid_argument);
  EXPECT_THROW((void)router.wait(5), std::out_of_range);
  EXPECT_THROW((void)router.poll(5), std::out_of_range);
  router.shutdown();
  EXPECT_THROW(router.submit(serve::Query<S>::select({0}, 16)),
               std::runtime_error);
  EXPECT_NO_THROW(router.shutdown());  // idempotent
}

TEST(Router, ShutdownDrainsChains) {
  const Index n = 24;
  const auto base = random_matrix<S>(n, n, 140, 99, dbl_entry);
  std::vector<serve::Query<S>> qs;
  for (int i = 0; i < 5; ++i) {
    qs.push_back(serve::Query<S>::analytic(random_matrix<S>(
        1, n, 6, 100 + static_cast<std::uint64_t>(i), dbl_entry)));
  }
  serve::Router<S> router(base, {.executor = {.async = true},
                                 .n_shards = 2});
  std::vector<std::size_t> tickets;
  for (const auto& q : qs) tickets.push_back(router.submit(q));
  router.shutdown();  // default drain resolves every chain
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(router.wait(tickets[i]), serve::run_single(base, qs[i]))
        << "query=" << i;
  }
}

}  // namespace

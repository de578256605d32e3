// Tests for the batched query serving engine (serve/): row-stacked
// coalescing must be bit-identical to per-query execution for every
// semiring family, mask sense mix, ragged batch shape, strategy, and
// thread count — batching may never change an answer. Also covers the
// engine's admission policy / ServeStats (through the 1-shard Router) and
// the planner's batch router.

#include <gtest/gtest.h>

#include "db/planner.hpp"
#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "sparse/io.hpp"
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

/// A ragged batch against an (nrows × ncols) base exercising every query
/// kind: unmasked, plain-masked, complement-masked, empty (no entries),
/// zero-row, 1-row, and select.
template <semiring::Semiring Sr, typename Gen>
std::vector<serve::Query<Sr>> ragged_batch(Index nrows, Index ncols,
                                           std::uint64_t seed, Gen&& entry) {
  using Q = serve::Query<Sr>;
  std::vector<Q> qs;
  qs.push_back(Q::analytic(random_matrix<Sr>(6, nrows, 40, seed + 1, entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(5, nrows, 30, seed + 2, entry),
                         random_matrix<Sr>(5, ncols, 60, seed + 3, entry)));
  qs.push_back(Q::masked(
      random_matrix<Sr>(4, nrows, 25, seed + 4, entry),
      random_matrix<Sr>(4, ncols, 20, seed + 5, entry), {.complement = true}));
  qs.push_back(Q::analytic(random_matrix<Sr>(2, nrows, 0, seed + 6, entry)));
  qs.push_back(Q::analytic(
      random_matrix<Sr>(0, nrows, 0, seed + 7, entry)));  // zero rows
  qs.push_back(Q::analytic(random_matrix<Sr>(1, nrows, 8, seed + 8, entry)));
  qs.push_back(Q::select({0, nrows / 2, nrows - 1}, nrows));
  return qs;
}

/// The batching sweep over a square base of side n and two non-square
/// bases (a narrow and a wide column space): answers bit-identical to
/// run_single at every thread count, and the batch keeps and skips exactly
/// the products its queries keep and skip alone.
template <semiring::Semiring Sr, typename Gen>
void expect_batched_equals_sequential(Index n, std::uint64_t seed,
                                      Gen&& entry) {
  struct Shape {
    Index nrows, ncols;
    std::uint64_t seed;
  };
  for (const auto& [nrows, ncols, bseed] :
       {Shape{n, n, seed}, Shape{32, 20, seed + 50},
        Shape{16, 64, seed + 90}}) {
    const auto base = random_matrix<Sr>(
        nrows, ncols, 6 * static_cast<int>(nrows), bseed, entry);
    const auto queries = ragged_batch<Sr>(nrows, ncols, bseed, entry);
    for (const int nt : {1, 2, 8}) {
      ThreadGuard guard(nt);
      serve::ServeStats stats;
      const auto batched = serve::run_batch(base, queries,
                                            MxmStrategy::kAuto, &stats);
      ASSERT_EQ(batched.size(), queries.size());
      MxmMaskStats want;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i], serve::run_single(base, queries[i],
                                                MxmStrategy::kAuto, &want))
            << "base=" << nrows << "x" << ncols << " threads=" << nt
            << " query=" << i;
      }
      EXPECT_EQ(stats.queries, queries.size());
      EXPECT_EQ(stats.kernel_launches, 1u);
      EXPECT_EQ(stats.launches_saved, queries.size() - 1);
      EXPECT_EQ(stats.flops_kept, want.flops_kept) << "threads=" << nt;
      EXPECT_EQ(stats.flops_skipped, want.flops_skipped) << "threads=" << nt;
    }
  }
}

TEST(ServeBatch, ArithmeticSemiringAllThreadCounts) {
  expect_batched_equals_sequential<semiring::PlusTimes<double>>(48, 101,
                                                               dbl_entry);
}

TEST(ServeBatch, TropicalSemiringAllThreadCounts) {
  expect_batched_equals_sequential<semiring::MinPlus<double>>(
      48, 202, [](util::Xoshiro256& r) { return r.uniform(0.0, 10.0); });
}

TEST(ServeBatch, SetSemiringAllThreadCounts) {
  expect_batched_equals_sequential<semiring::UnionIntersect>(
      40, 303, [](util::Xoshiro256& r) {
        return semiring::ValueSet{static_cast<std::int64_t>(r.bounded(16)),
                                  static_cast<std::int64_t>(r.bounded(16))};
      });
}

TEST(ServeBatch, EveryStrategyBitIdentical) {
  const Index n = 40;
  const auto base = random_matrix<S>(n, n, 240, 7, dbl_entry);
  const auto queries = ragged_batch<S>(n, n, 7, dbl_entry);
  for (const auto strat : {MxmStrategy::kGustavson, MxmStrategy::kHash,
                           MxmStrategy::kSorted}) {
    const auto batched = serve::run_batch(base, queries, strat);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batched[i], serve::run_single(base, queries[i], strat))
          << "strategy=" << static_cast<int>(strat) << " query=" << i;
    }
  }
}

TEST(ServeBatch, StatsThreadCountInvariant) {
  const Index n = 48;
  const auto base = random_matrix<S>(n, n, 300, 9, dbl_entry);
  const auto queries = ragged_batch<S>(n, n, 9, dbl_entry);
  serve::ServeStats ref;
  {
    ThreadGuard guard(1);
    serve::run_batch(base, queries, MxmStrategy::kAuto, &ref);
  }
  for (const int nt : {2, 8}) {
    ThreadGuard guard(nt);
    serve::ServeStats st;
    serve::run_batch(base, queries, MxmStrategy::kAuto, &st);
    EXPECT_EQ(st.flops_kept, ref.flops_kept) << "threads=" << nt;
    EXPECT_EQ(st.flops_skipped, ref.flops_skipped) << "threads=" << nt;
    EXPECT_EQ(st.rows_coalesced, ref.rows_coalesced);
  }
}

TEST(ServeBatch, HypersparseQueriesCoalesce) {
  // Queries whose row spaces are hypersparse-huge: the stacked operand
  // must go through DCSR and stay bit-identical — against an ordinary base
  // and against one whose column space is far beyond the dense-accumulator
  // cap, so its launch routes through the flat hash.
  const Index huge = Index{1} << 38;
  const Index n = 64;
  ASSERT_GT(Index{1} << 30, kMaxGustavsonWidth);
  const std::vector<Matrix<double>> bases{
      random_matrix<S>(n, n, 300, 11, dbl_entry),
      random_matrix<S>(n, Index{1} << 30, 120, 91, dbl_entry)};
  using Q = serve::Query<S>;
  std::vector<Q> qs;
  qs.push_back(Q::analytic(Matrix<double>::from_unique_triples(
      huge, n, {{5, 3, 2.0}, {Index{1} << 35, 7, 3.0}})));
  qs.push_back(Q::analytic(Matrix<double>::from_unique_triples(
      huge, n, {{Index{1} << 30, 1, 4.0}})));
  qs.push_back(Q::analytic(random_matrix<S>(4, n, 20, 12, dbl_entry)));
  for (const auto& base : bases) {
    for (const int nt : {1, 8}) {
      ThreadGuard guard(nt);
      const auto batched = serve::run_batch(base, qs);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(batched[i], serve::run_single(base, qs[i]))
            << "base cols=" << base.ncols() << " threads=" << nt
            << " query=" << i;
      }
    }
  }
}

TEST(ServeBatch, SelectReturnsBaseRows) {
  const Index n = 32;
  const auto base = random_matrix<S>(n, n, 200, 13, dbl_entry);
  const std::vector<Index> rows{3, 17, 3, 31};  // repeats allowed
  const auto rs =
      serve::run_batch<S>(base, {serve::Query<S>::select(rows, n)});
  ASSERT_EQ(rs.size(), 1u);
  const auto& r = rs.front();
  EXPECT_EQ(r.nrows(), static_cast<Index>(rows.size()));
  const auto v = base.view();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto want = v.row_cols(static_cast<std::size_t>(rows[i]));
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(r.get(static_cast<Index>(i), want[j]),
                v.row_vals(static_cast<std::size_t>(rows[i]))[j]);
    }
    EXPECT_EQ(r.get(static_cast<Index>(i), 0).has_value(),
              std::binary_search(want.begin(), want.end(), Index{0}));
  }
}

TEST(ServeBatch, ShapeMismatchesThrow) {
  const auto base = random_matrix<S>(16, 16, 40, 15, dbl_entry);
  using Q = serve::Query<S>;
  EXPECT_THROW(
      serve::run_batch<S>(
          base, {Q::analytic(random_matrix<S>(2, 8, 4, 1, dbl_entry))}),
      std::invalid_argument);
  EXPECT_THROW(
      serve::run_batch<S>(
          base, {Q::masked(random_matrix<S>(2, 16, 4, 1, dbl_entry),
                                  random_matrix<S>(3, 16, 4, 2, dbl_entry))}),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// The engine (a 1-shard Router): queue, admission policy, stats.

TEST(Executor, TicketsResolveInSubmissionOrder) {
  const Index n = 32;
  auto base = random_matrix<S>(n, n, 160, 21, dbl_entry);
  serve::Router<S> ex(base);
  const auto queries = ragged_batch<S>(n, n, 21, dbl_entry);
  std::vector<std::size_t> tickets;
  for (const auto& q : queries) tickets.push_back(ex.submit(q));
  EXPECT_EQ(ex.pending(), queries.size());
  ex.flush();
  EXPECT_EQ(ex.pending(), 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(ex.wait(tickets[i]), serve::run_single(base, queries[i]))
        << "query=" << i;
  }
  EXPECT_EQ(ex.stats().queries, queries.size());
  EXPECT_EQ(ex.stats().batches, 1u);
  EXPECT_EQ(ex.stats().launches_saved, queries.size() - 1);
}

TEST(Executor, ResultAutoFlushes) {
  const Index n = 16;
  serve::Router<S> ex(random_matrix<S>(n, n, 60, 22, dbl_entry));
  const auto t =
      ex.submit(serve::Query<S>::analytic(random_matrix<S>(2, n, 6, 23,
                                                         dbl_entry)));
  EXPECT_EQ(ex.pending(), 1u);
  (void)ex.wait(t);  // implicit flush
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_THROW(ex.wait(99), std::out_of_range);
}

TEST(Executor, ResultReferenceSurvivesLaterSubmits) {
  // The serving loop interleaves redeeming answers with new traffic: a
  // result() reference must stay valid across subsequent submit()/flush().
  const Index n = 16;
  serve::Router<S> ex(random_matrix<S>(n, n, 80, 27, dbl_entry));
  const auto q0 = serve::Query<S>::analytic(random_matrix<S>(2, n, 6, 28,
                                                           dbl_entry));
  const auto t0 = ex.submit(q0);
  const auto& r0 = ex.wait(t0);
  const auto snapshot = r0;  // value copy for comparison
  for (int i = 0; i < 200; ++i) {  // enough submits to force regrowth
    ex.submit(serve::Query<S>::analytic(
        random_matrix<S>(1, n, 3, 100 + static_cast<std::uint64_t>(i),
                         dbl_entry)));
  }
  ex.flush();
  EXPECT_EQ(r0, snapshot);  // same storage, unmoved and unchanged
  EXPECT_EQ(&ex.wait(t0), &r0);
}

TEST(Executor, BatchSizeAdmissionSplitsQueue) {
  const Index n = 24;
  serve::Router<S> ex(random_matrix<S>(n, n, 100, 24, dbl_entry),
                      {.executor = {.max_batch_queries = 2}});
  for (int i = 0; i < 5; ++i) {
    ex.submit(serve::Query<S>::analytic(
        random_matrix<S>(3, n, 10, 30 + static_cast<std::uint64_t>(i),
                         dbl_entry)));
  }
  ex.flush();
  EXPECT_EQ(ex.stats().batches, 3u);          // 2 + 2 + 1
  EXPECT_EQ(ex.stats().kernel_launches, 3u);
  EXPECT_EQ(ex.stats().queries, 5u);
  EXPECT_EQ(ex.stats().launches_saved, 2u);
}

TEST(Executor, FlopBudgetAdmissionSplitsQueue) {
  const Index n = 24;
  // Nothing fits together under a 1-flop budget.
  serve::Router<S> ex(random_matrix<S>(n, n, 200, 25, dbl_entry),
                      {.executor = {.max_batch_flops = 1}});
  for (int i = 0; i < 3; ++i) {
    ex.submit(serve::Query<S>::analytic(
        random_matrix<S>(3, n, 12, 40 + static_cast<std::uint64_t>(i),
                         dbl_entry)));
  }
  ex.flush();
  // Each batch admits exactly one query: the first is always admitted, the
  // next never fits a 1-flop budget.
  EXPECT_EQ(ex.stats().batches, 3u);
  EXPECT_EQ(ex.stats().launches_saved, 0u);
}

TEST(Executor, InvalidConfigAndQueriesThrow) {
  const auto base = random_matrix<S>(8, 8, 20, 26, dbl_entry);
  EXPECT_THROW(
      serve::Router<S>(base, {.executor = {.max_batch_queries = 0}}),
      std::invalid_argument);
  serve::Router<S> ex(base);
  EXPECT_THROW(
      ex.submit(serve::Query<S>::analytic(random_matrix<S>(2, 4, 2, 1,
                                                         dbl_entry))),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// Array façade + planner routing.

array::AssocArray<S> entity_array(const std::vector<array::Key>& rows,
                                  const std::vector<array::Key>& cols,
                                  std::uint64_t seed, int density = 60) {
  util::Xoshiro256 rng(seed);
  std::vector<array::Key> k1, k2;
  std::vector<double> v;
  for (const auto& r : rows) {
    for (const auto& c : cols) {
      if (rng.bounded(100) < static_cast<std::uint64_t>(density)) {
        k1.push_back(r);
        k2.push_back(c);
        v.push_back(rng.uniform(-1.0, 1.0));
      }
    }
  }
  return array::AssocArray<S>(k1, k2, v);
}

TEST(ArrayBatch, MatchesSequentialMtimes) {
  // Full density: every row/col key of the base is guaranteed occupied, so
  // batchability is a property of the test's key spaces, not of the seed.
  const auto base = entity_array({"a", "b", "c", "d"},
                                 {"x", "y", "z"}, 31, 100);
  std::vector<array::BatchQuery<S>> qs;
  qs.push_back({entity_array({"q0", "q1"}, {"a", "c"}, 32), std::nullopt, {}});
  qs.push_back({entity_array({"u"}, {"b", "d"}, 33),
                entity_array({"u"}, {"x", "z"}, 34),
                {}});
  qs.push_back({entity_array({"v", "w"}, {"a", "b", "c", "d"}, 35),
                entity_array({"v"}, {"y"}, 36),
                {.complement = true}});
  serve::ServeStats st;
  const auto rs = array::mtimes_batched(base, qs, &st);
  ASSERT_EQ(rs.size(), qs.size());
  EXPECT_EQ(rs[0], array::mtimes(qs[0].lhs, base));
  EXPECT_EQ(rs[1], array::mtimes_masked(qs[1].lhs, base, *qs[1].mask));
  EXPECT_EQ(rs[2], array::mtimes_masked(qs[2].lhs, base, *qs[2].mask,
                                        {.complement = true}));
  EXPECT_EQ(st.kernel_launches, 1u);
  EXPECT_EQ(st.launches_saved, 2u);
}

TEST(ArrayBatch, UnbatchableQueryThrows) {
  const auto base = entity_array({"a", "b"}, {"x"}, 41);
  // "zzz" is outside the base's row key space, so alignment would widen.
  std::vector<array::BatchQuery<S>> qs;
  qs.push_back({entity_array({"q"}, {"a", "zzz"}, 42), std::nullopt, {}});
  EXPECT_FALSE(array::batchable(base, qs.front()));
  EXPECT_THROW(array::mtimes_batched(base, qs), std::invalid_argument);
}

TEST(PlannedBatch, RoutesCoalescesAndFallsBack) {
  const auto base =
      entity_array({"a", "b", "c", "d"}, {"x", "y", "z"}, 51, 100);
  std::vector<array::BatchQuery<S>> qs;
  // Batchable.
  qs.push_back(
      {array::AssocArray<S>(std::vector<array::Key>{"q0", "q0"},
                            std::vector<array::Key>{"a", "b"},
                            std::vector<double>{1.0, 2.0}),
       std::nullopt,
       {}});
  // Fallback: col keys reach outside the base's row key space.
  qs.push_back(
      {array::AssocArray<S>(std::vector<array::Key>{"q1", "q1"},
                            std::vector<array::Key>{"b", "extra"},
                            std::vector<double>{1.0, 2.0}),
       std::nullopt,
       {}});
  // Annihilated by §IV: no overlap with the base's rows at all.
  qs.push_back(
      {array::AssocArray<S>({"q2"}, {"nowhere"}, {1.0}), std::nullopt, {}});
  // Batchable, masked (explicit entries so the §V-B precheck provably
  // cannot annihilate it).
  qs.push_back(
      {array::AssocArray<S>(std::vector<array::Key>{"q3", "q3", "q4"},
                            std::vector<array::Key>{"c", "d", "d"},
                            std::vector<double>{1.0, 2.0, 3.0}),
       array::AssocArray<S>(std::vector<array::Key>{"q3", "q4"},
                            std::vector<array::Key>{"x", "z"},
                            std::vector<double>{1.0, 1.0}),
       {}});
  // Annihilated by §V-B: empty plain-sense mask.
  qs.push_back({entity_array({"q5"}, {"a"}, 56), array::AssocArray<S>(), {}});

  db::PlanStats ps;
  serve::ServeStats ss;
  const auto rs = db::planned_batch(base, qs, &ps, &ss);
  ASSERT_EQ(rs.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want =
        qs[i].mask ? db::planned_mtimes_masked(qs[i].lhs, base, *qs[i].mask,
                                               qs[i].desc)
                   : db::planned_mtimes(qs[i].lhs, base);
    EXPECT_EQ(rs[i], want) << "query=" << i;
  }
  EXPECT_EQ(ps.batches, 1);
  EXPECT_EQ(ps.queries_batched, 2);
  EXPECT_EQ(ps.queries_fallback, 1);
  EXPECT_EQ(ps.products_skipped, 2);
  EXPECT_EQ(ss.kernel_launches, 1u);
  EXPECT_EQ(ss.queries, 2u);
}

TEST(PlannedBatch, EmptyQueryListIsANoOp) {
  const auto base = entity_array({"a"}, {"x"}, 61);
  db::PlanStats ps;
  EXPECT_TRUE(db::planned_batch<S>(base, {}, &ps).empty());
  EXPECT_EQ(ps.batches, 0);
}

}  // namespace

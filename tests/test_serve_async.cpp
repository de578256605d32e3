// Tests for the async multi-tenant engine, driven through the 1-shard
// Router (serve/router.hpp) so the shard worker (serve/executor.hpp) is
// exercised through the one Service: the background flush thread, ticket
// futures (wait/poll), per-tenant accounting and flop quotas, and the
// shutdown / drain protocol. The core invariant is unchanged from the
// synchronous engine: no flush timing, batch boundary, tenant mix, or
// thread count may ever change an answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
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

/// A base whose every row has exactly 4 entries, so admission flops are a
/// closed-form function of the lhs pattern: flops(q) = 4 · nnz(lhs).
Matrix<double> uniform_base(Index n) {
  std::vector<Triple<double>> t;
  for (Index r = 0; r < n; ++r) {
    for (Index j = 0; j < 4; ++j) {
      t.push_back({r, (r + j * 7) % n, 1.0 + static_cast<double>(r + j)});
    }
  }
  return Matrix<double>::from_triples<S>(n, n, std::move(t));
}

/// A 1-row query with `width` distinct lhs entries against an n-wide base.
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

// --------------------------------------------------------------------------
// Async flush thread: submit/wait futures, bit-identical to sync.

template <semiring::Semiring Sr, typename Gen>
void expect_async_equals_sync(std::uint64_t seed, Gen&& entry) {
  const auto b0 = random_matrix<Sr>(40, 40, 240, seed, entry);
  const auto b1 = random_matrix<Sr>(24, 32, 150, seed + 5, entry);

  std::vector<serve::Query<Sr>> qs;
  std::vector<std::size_t> base_of;
  for (int i = 0; i < 24; ++i) {
    const auto s = seed + 10 + static_cast<std::uint64_t>(i) * 3;
    const std::size_t b = static_cast<std::size_t>(i % 2);
    const Index n = b == 0 ? 40 : 24;
    const Index c = b == 0 ? 40 : 32;
    if (i % 4 == 3) {
      qs.push_back(serve::Query<Sr>::masked(
          random_matrix<Sr>(2, n, 12, s, entry),
          random_matrix<Sr>(2, c, 16, s + 1, entry),
          {.complement = i % 8 == 7}));
    } else {
      qs.push_back(
          serve::Query<Sr>::analytic(random_matrix<Sr>(2, n, 10, s, entry)));
    }
    base_of.push_back(b);
  }

  typename serve::Router<Sr>::Config cfg;
  cfg.executor.max_batch_queries = 5;
  cfg.executor.async = true;
  for (const int nt : {1, 2, 8}) {
    ThreadGuard guard(nt);
    // One async engine per base; submissions interleave across both.
    serve::Router<Sr> ex0(b0, cfg);
    serve::Router<Sr> ex1(b1, cfg);
    serve::Router<Sr>* const ex[] = {&ex0, &ex1};
    std::vector<std::size_t> tickets;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      tickets.push_back(ex[base_of[i]]->submit(
          static_cast<serve::TenantId>(i % 3), qs[i]));
    }
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const auto& base = base_of[i] == 0 ? b0 : b1;
      EXPECT_EQ(ex[base_of[i]]->wait(tickets[i]),
                serve::run_single(base, qs[i]))
          << "threads=" << nt << " query=" << i;
    }
    for (std::size_t b = 0; b < 2; ++b) {
      const auto st = ex[b]->stats();
      EXPECT_EQ(st.queries, qs.size() / 2) << "base=" << b;
      // Per-tenant exact counters are flush-timing invariant.
      std::uint64_t tq = 0, trows = 0;
      for (const auto t : ex[b]->tenants()) {
        tq += ex[b]->tenant_stats(t).queries;
        trows += ex[b]->tenant_stats(t).rows;
      }
      EXPECT_EQ(tq, st.queries) << "base=" << b;
      EXPECT_EQ(trows, st.rows_coalesced) << "base=" << b;
      ex[b]->shutdown();
    }
  }
}

TEST(ExecutorAsync, ArithmeticMatchesSyncAllThreadCounts) {
  expect_async_equals_sync<semiring::PlusTimes<double>>(1001, dbl_entry);
}

TEST(ExecutorAsync, TropicalMatchesSyncAllThreadCounts) {
  expect_async_equals_sync<semiring::MinPlus<double>>(
      2002, [](util::Xoshiro256& r) { return r.uniform(0.0, 10.0); });
}

TEST(ExecutorAsync, SetSemiringMatchesSyncAllThreadCounts) {
  expect_async_equals_sync<semiring::UnionIntersect>(
      3003, [](util::Xoshiro256& r) {
        return semiring::ValueSet{static_cast<std::int64_t>(r.bounded(16)),
                                  static_cast<std::int64_t>(r.bounded(16))};
      });
}

TEST(ExecutorAsync, IdleFlusherLaunchesALonePolledQuery) {
  // Work-conserving flush: an idle flusher launches as soon as anything is
  // queued. One lone query, and nothing calls wait() or flush() — poll()
  // alone must see it settle, with no timer to wait out. A second query
  // submitted after the first settled finds the flusher idle again.
  const auto base = uniform_base(32);
  serve::Router<S> ex(base, {.executor = {.async = true}});
  for (const std::uint64_t seed : {7u, 8u}) {
    const auto t = ex.submit(point_query(32, 4, seed));
    while (ex.poll(t) == nullptr) std::this_thread::yield();
    EXPECT_EQ(*ex.poll(t), serve::run_single(base, point_query(32, 4, seed)));
    EXPECT_EQ(ex.pending(), 0u);
  }
  EXPECT_EQ(ex.stats().queries, 2u);
}

TEST(ExecutorAsync, ResultLivenessAcrossDequeGrowthUnderConcurrentSubmits) {
  // The async serving loop redeems answers while new traffic lands from
  // other threads: a wait() reference must stay valid (and its value
  // unchanged) across concurrent submit()-driven deque growth.
  const Index n = 32;
  const auto base = uniform_base(n);
  serve::Router<S> ex(base, {.executor = {.async = true}});
  const auto q0 = point_query(n, 4, 11);
  const auto t0 = ex.submit(q0);
  const auto& r0 = ex.wait(t0);
  const auto snapshot = r0;  // value copy for comparison
  std::thread submitter([&ex, n] {
    for (int i = 0; i < 300; ++i) {
      ex.submit(point_query(n, 4, 1000 + static_cast<std::uint64_t>(i)));
    }
  });
  for (int i = 0; i < 100; ++i) {
    ex.submit(point_query(n, 4, 5000 + static_cast<std::uint64_t>(i)));
  }
  submitter.join();
  ex.flush();
  EXPECT_EQ(r0, snapshot);  // same storage, unmoved and unchanged
  EXPECT_EQ(&ex.wait(t0), &r0);
  EXPECT_EQ(ex.stats().queries, 401u);
}

// --------------------------------------------------------------------------
// Shutdown / drain protocol.

TEST(ExecutorAsync, ShutdownDrainsQueuedButUnflushedTickets) {
  // Whatever the flusher has not launched by shutdown() is drained there;
  // either way every ticket settles with its exact answer.
  const auto base = uniform_base(48);
  std::vector<std::size_t> tickets;
  serve::Router<S> ex(base, {.executor = {.async = true}});
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(ex.submit(point_query(
        48, 4, 300 + static_cast<std::uint64_t>(i))));
  }
  ex.shutdown();  // default drain = true
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(ex.wait(tickets[i]),
              serve::run_single(base, point_query(
                  48, 4, 300 + static_cast<std::uint64_t>(i))))
        << "ticket=" << i;
  }
  EXPECT_THROW(ex.submit(point_query(48, 4, 999)), std::runtime_error);
  EXPECT_NO_THROW(ex.shutdown());  // idempotent
}

TEST(ExecutorAsync, ShutdownWithoutDrainDropsTickets) {
  // The drop assertions need a ticket that is provably unflushed at
  // shutdown, which only the synchronous engine can hold: an async flusher
  // launches whatever is queued (see ShutdownWithoutDrainSettlesOrThrows).
  const auto base = uniform_base(32);
  serve::Router<S> ex(base);
  const auto resolved = ex.submit(point_query(32, 4, 21));
  ex.flush();
  ASSERT_NE(ex.poll(resolved), nullptr);  // settled — must survive shutdown
  const auto dropped = ex.submit(point_query(32, 4, 22));
  ex.shutdown(false);
  EXPECT_NO_THROW((void)ex.wait(resolved));
  EXPECT_EQ(ex.poll(dropped), nullptr);
  EXPECT_THROW((void)ex.wait(dropped), std::runtime_error);
}

TEST(ExecutorAsync, ShutdownWithoutDrainSettlesOrThrows) {
  // Async flavour: a non-draining shutdown races the work-conserving
  // flusher, so each ticket either settled (its answer is exact) or was
  // dropped (wait() throws). Neither path may hang.
  const auto base = uniform_base(32);
  serve::Router<S> ex(base, {.executor = {.async = true}});
  std::vector<std::size_t> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(
        ex.submit(point_query(32, 4, 40 + static_cast<std::uint64_t>(i))));
  }
  ex.shutdown(false);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto* r = ex.poll(tickets[i]);
    if (r != nullptr) {
      EXPECT_EQ(*r, serve::run_single(base, point_query(
                        32, 4, 40 + static_cast<std::uint64_t>(i))));
      EXPECT_EQ(&ex.wait(tickets[i]), r);
    } else {
      EXPECT_THROW((void)ex.wait(tickets[i]), std::runtime_error);
    }
  }
}

TEST(ExecutorAsync, DestructorDrainsWithoutExplicitShutdown) {
  const auto base = uniform_base(32);
  {
    serve::Router<S> ex(base, {.executor = {.async = true}});
    ex.submit(point_query(32, 4, 31));
    ex.submit(point_query(32, 4, 32));
    // No wait, no flush, no shutdown: the destructor must retire the flush
    // thread and drain cleanly (ASan/TSan guard this).
  }
  SUCCEED();
}

// --------------------------------------------------------------------------
// Admission edge cases the async work makes load-bearing.

TEST(Executor, FlushOfAnEmptyQueueIsANoOp) {
  serve::Router<S> ex(uniform_base(16));
  ex.flush();
  ex.flush();
  EXPECT_EQ(ex.stats().batches, 0u);
  EXPECT_EQ(ex.stats().queries, 0u);
  EXPECT_EQ(ex.pending(), 0u);
  // Async flavour: an idle flusher must tolerate explicit empty flushes.
  serve::Router<S> ax(uniform_base(16), {.executor = {.async = true}});
  ax.flush();
  EXPECT_EQ(ax.stats().batches, 0u);
}

TEST(Executor, ZeroFlopBudgetAdmitsOneQueryPerBatch) {
  const auto base = uniform_base(32);
  serve::Router<S> ex(base, {.executor = {.max_batch_flops = 0}});
  std::vector<std::size_t> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(ex.submit(point_query(
        32, 4, 400 + static_cast<std::uint64_t>(i))));
  }
  ex.flush();
  // The first query of a batch is always admitted; nothing else fits a
  // zero budget — so admission degrades to per-query, never to livelock.
  EXPECT_EQ(ex.stats().batches, 4u);
  EXPECT_EQ(ex.stats().launches_saved, 0u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(ex.wait(tickets[i]),
              serve::run_single(base, point_query(
                  32, 4, 400 + static_cast<std::uint64_t>(i))));
  }
}

TEST(Executor, ZeroTenantQuotaStillMakesProgress) {
  const auto base = uniform_base(32);
  serve::Router<S> ex(base, {.executor = {.tenant_flop_quota = 0}});
  for (int i = 0; i < 3; ++i) {
    ex.submit(1, point_query(32, 4, 500 + static_cast<std::uint64_t>(i)));
    ex.submit(2, point_query(32, 4, 600 + static_cast<std::uint64_t>(i)));
  }
  ex.flush();
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.stats().queries, 6u);
  EXPECT_EQ(ex.stats().batches, 6u);  // one query per batch under quota 0
  EXPECT_EQ(ex.tenant_stats(1).queries, 3u);
  EXPECT_EQ(ex.tenant_stats(2).queries, 3u);
}

TEST(Executor, TenantQuotaStopsAHeavyTenantStarvingPointLookups) {
  // Tenant 1 queues 6 heavy queries (8 lhs entries → 32 flops each against
  // the uniform base); tenant 2 queues 5 point lookups (1 entry → 4 flops
  // each, 20 total). Quota 32 admits ONE heavy query per batch but all the
  // point lookups together, so every lookup rides the first batch instead
  // of queueing behind the heavy tenant.
  const Index n = 64;
  const auto base = uniform_base(n);
  serve::Router<S> ex(base, {.executor = {.tenant_flop_quota = 32}});
  std::vector<std::size_t> heavy, light;
  for (int i = 0; i < 6; ++i) {
    heavy.push_back(ex.submit(
        1, point_query(n, 8, 700 + static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < 5; ++i) {
    light.push_back(ex.submit(
        2, point_query(n, 1, 800 + static_cast<std::uint64_t>(i))));
  }
  ex.flush();
  const auto h = ex.tenant_stats(1);
  const auto l = ex.tenant_stats(2);
  EXPECT_EQ(h.queries, 6u);
  EXPECT_EQ(h.flops, 6u * 32u);
  EXPECT_EQ(l.queries, 5u);
  EXPECT_EQ(l.flops, 5u * 4u);  // 1 entry × 4-long base rows
  EXPECT_EQ(ex.stats().batches, 6u);  // one per heavy query
  EXPECT_EQ(h.batches, 6u);
  EXPECT_EQ(l.batches, 1u);  // all lookups answered in the FIRST batch
  EXPECT_EQ(h.deferrals, 5u);  // deferred in every batch but the last
  EXPECT_EQ(l.deferrals, 0u);
  // Correctness is untouched by the quota slicing.
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    EXPECT_EQ(ex.wait(heavy[i]),
              serve::run_single(base, point_query(
                  n, 8, 700 + static_cast<std::uint64_t>(i))));
  }
  for (std::size_t i = 0; i < light.size(); ++i) {
    EXPECT_EQ(ex.wait(light[i]),
              serve::run_single(base, point_query(
                  n, 1, 800 + static_cast<std::uint64_t>(i))));
  }
}

TEST(Executor, RoundRobinRotatesAcrossBatches) {
  // Quota 0 ⇒ one query per batch; the rotating cursor must alternate
  // tenants rather than exhausting the lowest id first.
  const auto base = uniform_base(32);
  serve::Router<S> ex(base, {.executor = {.tenant_flop_quota = 0}});
  const auto a0 = ex.submit(1, point_query(32, 4, 41));
  const auto b0 = ex.submit(2, point_query(32, 4, 42));
  const auto a1 = ex.submit(1, point_query(32, 4, 43));
  const auto b1 = ex.submit(2, point_query(32, 4, 44));
  (void)a0;
  (void)a1;
  (void)b0;
  (void)b1;
  ex.flush();
  EXPECT_EQ(ex.stats().batches, 4u);
  // Fairness is visible in the deferral counts. Without rotation tenant 1
  // drains completely first (a0, a1, b0, b1): tenant 1 defers once and
  // tenant 2 three times. The rotating cursor alternates (a0, b0, a1, b1),
  // so tenant 1 eats a second deferral while b0 is served ahead of a1.
  EXPECT_EQ(ex.tenant_stats(1).deferrals, 2u);
  EXPECT_EQ(ex.tenant_stats(2).deferrals, 3u);
}

TEST(Executor, GustavsonTooWideBaseRejectedAtConstruction) {
  // A forced dense-scratch strategy over a base wider than the scratch cap
  // could only fail inside a flush — on the background thread in async
  // mode. The engine refuses the configuration up front instead.
  sparse::Matrix<double> wide(4, (Index{1} << 24) + 1);
  EXPECT_THROW(
      serve::Router<S>(std::move(wide),
                       {.executor = {.strategy = MxmStrategy::kGustavson}}),
      std::invalid_argument);
}

TEST(Executor, WaitUnknownTicketThrows) {
  serve::Router<S> ex(uniform_base(8));
  EXPECT_THROW((void)ex.wait(0), std::out_of_range);
  EXPECT_THROW((void)ex.poll(3), std::out_of_range);
}

}  // namespace

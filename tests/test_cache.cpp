// Tests for the serve-layer result cache (serve/cache.hpp): the
// ResultCache mechanics (LRU under a byte budget, negative entries, lazy
// stale reclamation), key near-misses (same lhs at a different epoch,
// same pattern with different values, same mask with a different
// sense/probe), epoch invalidation through 1-shard and sharded Routers,
// and — the load-bearing part — a randomized read/mutate coherence fuzzer
// proving that a cached engine is BYTE-identical to an uncached reference
// across semirings, thread counts, shard counts, and sync/async modes:
// a cache hit is a byte-identical replay, never a recomputation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/cache.hpp"
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

semiring::ValueSet vs_entry(util::Xoshiro256& r) {
  return semiring::ValueSet{static_cast<std::int64_t>(r.bounded(16)),
                            static_cast<std::int64_t>(r.bounded(16))};
}

// --------------------------------------------------------------------------
// Byte-exact comparison: serialize a matrix's canonical content — shape,
// row ids, column ids, raw value BYTES (memcpy, not operator==, so
// -0.0 != +0.0 and NaN payloads count) — and memcmp the two buffers.

template <typename T>
void append_value_bytes(std::vector<unsigned char>& out, const T& v) {
  unsigned char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.insert(out.end(), buf, buf + sizeof(T));
}

void append_value_bytes(std::vector<unsigned char>& out,
                        const semiring::ValueSet& v) {
  out.push_back(v.is_universe() ? 1 : 0);
  append_value_bytes(out, static_cast<std::uint64_t>(v.elements().size()));
  for (const std::int64_t e : v.elements()) append_value_bytes(out, e);
}

template <typename T>
std::vector<unsigned char> matrix_bytes(const Matrix<T>& m) {
  std::vector<unsigned char> out;
  const auto v = m.view();
  append_value_bytes(out, static_cast<std::int64_t>(v.nrows));
  append_value_bytes(out, static_cast<std::int64_t>(v.ncols));
  for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
    const auto rc = v.row_cols(ri);
    const auto rv = v.row_vals(ri);
    append_value_bytes(out, static_cast<std::int64_t>(v.row_ids[ri]));
    append_value_bytes(out, static_cast<std::uint64_t>(rc.size()));
    for (std::size_t j = 0; j < rc.size(); ++j) {
      append_value_bytes(out, static_cast<std::int64_t>(rc[j]));
      append_value_bytes(out, rv[j]);
    }
  }
  return out;
}

template <typename T>
::testing::AssertionResult bytes_identical(const Matrix<T>& a,
                                           const Matrix<T>& b) {
  const auto ba = matrix_bytes(a);
  const auto bb = matrix_bytes(b);
  if (ba.size() != bb.size()) {
    return ::testing::AssertionFailure()
           << "serialized sizes differ: " << ba.size() << " vs " << bb.size();
  }
  if (!ba.empty() && std::memcmp(ba.data(), bb.data(), ba.size()) != 0) {
    return ::testing::AssertionFailure() << "serialized bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// --------------------------------------------------------------------------
// ResultCache unit mechanics (no engine involved).

serve::Query<S> one_row_query(Index n, std::uint64_t seed, int width = 4) {
  util::Xoshiro256 rng(seed);
  std::vector<Triple<double>> t;
  for (int e = 0; e < width; ++e) {
    t.push_back({0,
                 static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(n))),
                 rng.uniform(0.5, 1.5)});
  }
  return serve::Query<S>::analytic(
      Matrix<double>::from_triples<S>(1, n, std::move(t)));
}

TEST(ResultCache, DisabledCacheNeverHitsOrStores) {
  serve::ResultCache<S> cache;  // max_bytes = 0
  EXPECT_FALSE(cache.enabled());
  const auto q = one_row_query(16, 1);
  const auto k = serve::ResultCache<S>::make_key(0, 0, q, 0);
  cache.install(k, q.lhs);
  EXPECT_FALSE(cache.probe(k, [](const auto&) { return false; }).has_value());
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled probes don't even count
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, MissInstallHitRoundTripsTheExactBytes) {
  serve::ResultCache<S> cache({.max_bytes = 1 << 16});
  const auto q = one_row_query(16, 2);
  const auto val = random_matrix<S>(1, 8, 6, 3, dbl_entry);
  const auto k = serve::ResultCache<S>::make_key(0, 0, q, 0);
  auto fresh = [](const auto&) { return false; };
  EXPECT_FALSE(cache.probe(k, fresh).has_value());
  cache.install(k, val);
  const auto hit = cache.probe(k, fresh);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(bytes_identical(hit->value, val));
  EXPECT_GT(hit->bytes, 0u);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.installs, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, hit->bytes);
}

TEST(ResultCache, LruEvictsUnderTheByteBudgetOldestFirst) {
  serve::ResultCache<S> cache({.max_bytes = 1 << 10});
  auto fresh = [](const auto&) { return false; };
  const auto val = random_matrix<S>(1, 16, 12, 5, dbl_entry);
  // Install keys until the budget forces evictions.
  std::vector<serve::ResultCache<S>::Key> keys;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto q = one_row_query(16, 100 + i);
    keys.push_back(serve::ResultCache<S>::make_key(0, 0, q, 0));
    cache.install(keys.back(), val);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.installs, 16u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, std::uint64_t{1} << 10);
  EXPECT_EQ(st.entries, st.installs - st.evictions);
  // Oldest-first: the most recent key must still be resident, the very
  // first long gone.
  EXPECT_TRUE(cache.probe(keys.back(), fresh).has_value());
  EXPECT_FALSE(cache.probe(keys.front(), fresh).has_value());
}

TEST(ResultCache, OversizedAnswerIsNotInstalled) {
  serve::ResultCache<S> cache({.max_bytes = 64});
  const auto q = one_row_query(16, 7);
  const auto k = serve::ResultCache<S>::make_key(0, 0, q, 0);
  cache.install(k, random_matrix<S>(4, 32, 64, 8, dbl_entry));
  EXPECT_EQ(cache.stats().installs, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, NegativeEntriesFollowTheConfigSwitch) {
  const Matrix<double> empty(1, 8, 0.0);
  const auto q = one_row_query(16, 9);
  const auto k = serve::ResultCache<S>::make_key(0, 0, q, 0);
  auto fresh = [](const auto&) { return false; };
  serve::ResultCache<S> on({.max_bytes = 1 << 12, .negative = true});
  on.install(k, empty);
  const auto hit = on.probe(k, fresh);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value.view().nnz(), 0);
  serve::ResultCache<S> off({.max_bytes = 1 << 12, .negative = false});
  off.install(k, empty);
  EXPECT_FALSE(off.probe(k, fresh).has_value());
}

TEST(ResultCache, StaleTailEntriesAreReclaimedLazilyOnProbe) {
  serve::ResultCache<S> cache({.max_bytes = 1 << 16});
  const auto val = random_matrix<S>(1, 8, 6, 11, dbl_entry);
  // Three entries at epoch 0, then the "engine" moves to epoch 1.
  std::vector<serve::ResultCache<S>::Key> old_keys;
  for (std::uint64_t i = 0; i < 3; ++i) {
    old_keys.push_back(serve::ResultCache<S>::make_key(
        0, 0, one_row_query(16, 200 + i), 0));
    cache.install(old_keys.back(), val);
  }
  auto stale = [](const serve::ResultCache<S>::Key& k) {
    return k.epoch != 1;
  };
  // A probe at the new epoch reclaims at most two tail entries.
  const auto k_new =
      serve::ResultCache<S>::make_key(1, 0, one_row_query(16, 300), 0);
  EXPECT_FALSE(cache.probe(k_new, stale).has_value());
  EXPECT_EQ(cache.stats().stale_drops, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The next probe drains the rest; stale drops are not LRU evictions.
  EXPECT_FALSE(cache.probe(k_new, stale).has_value());
  EXPECT_EQ(cache.stats().stale_drops, 3u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// --------------------------------------------------------------------------
// Key near-misses: every component of the key must separate.

TEST(CacheKey, SameLhsAtDifferentEpochsNeverCollides) {
  const auto q = one_row_query(16, 21);
  const auto k0 = serve::ResultCache<S>::make_key(0, 0, q, 0);
  const auto k1 = serve::ResultCache<S>::make_key(1, 0, q, 0);
  EXPECT_NE(k0, k1);
  serve::ResultCache<S> cache({.max_bytes = 1 << 14});
  cache.install(k0, q.lhs);
  EXPECT_FALSE(
      cache.probe(k1, [](const auto&) { return false; }).has_value());
}

TEST(CacheKey, SamePatternDifferentValueBytesNeverCollides) {
  // Same sparsity pattern, values differing in exactly one bit pattern
  // (+0.0 vs -0.0 included): the content fingerprint must separate them.
  std::vector<Triple<double>> ta{{0, 1, 1.5}, {0, 4, 0.0}};
  std::vector<Triple<double>> tb{{0, 1, 1.5}, {0, 4, -0.0}};
  auto qa = serve::Query<S>::analytic(
      Matrix<double>::from_unique_triples(1, 8, std::move(ta)));
  auto qb = serve::Query<S>::analytic(
      Matrix<double>::from_unique_triples(1, 8, std::move(tb)));
  EXPECT_NE(serve::ResultCache<S>::make_key(0, 0, qa, 0),
            serve::ResultCache<S>::make_key(0, 0, qb, 0));
}

TEST(CacheKey, SameMaskDifferentSenseOrProbeNeverCollides) {
  const auto lhs = random_matrix<S>(2, 16, 8, 31, dbl_entry);
  const auto mask = random_matrix<S>(2, 16, 10, 32, dbl_entry);
  auto make = [&](bool complement, MaskProbe probe) {
    auto q = serve::Query<S>::masked(lhs, mask,
                                     {.complement = complement,
                                      .probe = probe});
    return serve::ResultCache<S>::make_key(0, 0, q, 0);
  };
  const auto plain = make(false, MaskProbe::kAuto);
  EXPECT_NE(plain, make(true, MaskProbe::kAuto));    // sense differs
  EXPECT_NE(plain, make(false, MaskProbe::kBinary))  // probe differs
      << "probe policy must be part of the key";
  // And masked vs unmasked with the same lhs: kind differs.
  auto qa = serve::Query<S>::analytic(lhs);
  EXPECT_NE(plain, serve::ResultCache<S>::make_key(0, 0, qa, 0));
}

TEST(CacheKey, CarriedQueriesAreNeverCacheable) {
  auto q = one_row_query(16, 41);
  EXPECT_TRUE(serve::ResultCache<S>::cacheable(q));
  q.carry = Matrix<double>(1, 16, 0.0);
  EXPECT_FALSE(serve::ResultCache<S>::cacheable(q));
  auto q2 = one_row_query(16, 42);
  q2.no_cache = true;
  EXPECT_FALSE(serve::ResultCache<S>::cacheable(q2));
}

// --------------------------------------------------------------------------
// Engine integration: hit/miss/invalidation semantics on the 1-shard
// Router.

/// A base with row 2 deliberately EMPTY (for the negative-entry test) and
/// every other row carrying 3 entries.
Matrix<double> holey_base(Index n) {
  std::vector<Triple<double>> t;
  for (Index r = 0; r < n; ++r) {
    if (r == 2) continue;
    for (Index j = 0; j < 3; ++j) {
      t.push_back({r, (r + j * 5) % n, 1.0 + static_cast<double>(r + j)});
    }
  }
  return Matrix<double>::from_triples<S>(n, n, std::move(t));
}

TEST(ExecutorCache, RepeatQueryHitsAndReplaysTheExactBytes) {
  const Index n = 32;
  serve::Router<S> ex(holey_base(n), {.executor = {.cache_bytes = 1 << 16}});
  const auto q = one_row_query(n, 51);
  const auto t0 = ex.submit(q);
  const auto first = matrix_bytes(ex.wait(t0));
  const auto t1 = ex.submit(q);
  const auto second = matrix_bytes(ex.wait(t1));
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0);
  const auto st = ex.cache_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  const auto ts = ex.tenant_stats(0);
  EXPECT_EQ(ts.cache_hits, 1u);
  EXPECT_EQ(ts.cache_misses, 1u);
  EXPECT_GT(ts.cache_bytes, 0u);
  // A hit never executes: kernel-side accounting saw exactly one query.
  EXPECT_EQ(ex.stats().queries, 1u);
  EXPECT_EQ(ts.queries, 1u);
}

TEST(ExecutorCache, MutationInvalidatesByEpochWithoutFlushing) {
  const Index n = 32;
  serve::Router<S> cached(holey_base(n),
                          {.executor = {.cache_bytes = 1 << 16}});
  serve::Router<S> plain(holey_base(n));
  const auto q = one_row_query(n, 61);
  // Warm the cache at epoch 0 and hit it once.
  (void)cached.wait(cached.submit(q));
  (void)cached.wait(cached.submit(q));
  (void)plain.wait(plain.submit(q));
  ASSERT_EQ(cached.cache_stats().hits, 1u);
  // Mutate both engines identically: the epoch moves, the entry is stale.
  UpdateBatch<double> ops;
  util::Xoshiro256 rng(62);
  for (int i = 0; i < 8; ++i) {
    ops.push_back(Update<double>::assign(
        static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(n))),
        static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(n))),
        rng.uniform(0.5, 1.5)));
  }
  cached.mutate(0, ops);
  plain.mutate(0, ops);
  const auto& rc = cached.wait(cached.submit(q));
  const auto& rp = plain.wait(plain.submit(q));
  EXPECT_TRUE(bytes_identical(rc, rp));
  const auto st = cached.cache_stats();
  EXPECT_EQ(st.hits, 1u);    // the post-mutation probe missed
  EXPECT_EQ(st.misses, 2u);  // warm-up + post-mutation
  // And the new-epoch answer is itself cached: one more submit hits.
  (void)cached.wait(cached.submit(q));
  EXPECT_EQ(cached.cache_stats().hits, 2u);
}

TEST(ExecutorCache, NegativeEntryInvalidatedWhenMutationFillsTheRow) {
  const Index n = 32;
  serve::Router<S> ex(holey_base(n), {.executor = {.cache_bytes = 1 << 16}});
  const auto q = serve::Query<S>::point(2, n);  // row 2 is empty
  const auto& r0 = ex.wait(ex.submit(q));
  EXPECT_EQ(r0.view().nnz(), 0);
  const auto& r1 = ex.wait(ex.submit(q));  // negative entry hit
  EXPECT_EQ(r1.view().nnz(), 0);
  EXPECT_EQ(ex.cache_stats().hits, 1u);
  // The mutation makes the answer non-empty; the negative entry must die
  // with its epoch, not survive as a wrong "no such row".
  UpdateBatch<double> ops;
  ops.push_back(Update<double>::assign(2, 7, 42.0));
  ex.mutate(0, ops);
  const auto& r2 = ex.wait(ex.submit(q));
  EXPECT_GT(r2.view().nnz(), 0);
  EXPECT_EQ(ex.cache_stats().hits, 1u);  // no phantom hit after the epoch
}

TEST(ExecutorCache, NegativeCachingCanBeDisabled) {
  const Index n = 32;
  serve::Router<S> ex(holey_base(n), {.executor = {.cache_bytes = 1 << 16,
                                                   .cache_negative = false}});
  const auto q = serve::Query<S>::point(2, n);
  (void)ex.wait(ex.submit(q));
  (void)ex.wait(ex.submit(q));
  EXPECT_EQ(ex.cache_stats().hits, 0u);  // empty answers never installed
  EXPECT_EQ(ex.cache_stats().misses, 2u);
}

TEST(RouterCache, HitsServeWithoutScatterAndMutationInvalidates) {
  const Index n = 48;
  const auto base = random_matrix<S>(n, n, 6 * n, 71, dbl_entry);
  serve::Router<S> router(base, {.executor = {.cache_bytes = 1 << 16},
                                 .n_shards = 4});
  // A 4-key point query straddles shards: the gathered final answer is
  // what must land in the cache.
  const auto q = one_row_query(n, 72);
  const auto b0 = matrix_bytes(router.wait(router.submit(q)));
  const auto rs0 = router.router_stats();
  EXPECT_EQ(rs0.cache_misses, 1u);
  const auto b1 = matrix_bytes(router.wait(router.submit(q)));
  ASSERT_EQ(b0.size(), b1.size());
  EXPECT_EQ(std::memcmp(b0.data(), b1.data(), b0.size()), 0);
  const auto rs1 = router.router_stats();
  EXPECT_EQ(rs1.cache_hits, 1u);
  // The hit created no chain stages: stage_submits didn't move.
  EXPECT_EQ(rs1.stage_submits, rs0.stage_submits);
  EXPECT_EQ(router.tenant_stats(0).cache_hits, 1u);
  // Any logical mutation invalidates (router epoch is coarse).
  UpdateBatch<double> ops;
  ops.push_back(Update<double>::assign(0, 0, 9.0));
  router.mutate(ops);
  (void)router.wait(router.submit(q));
  EXPECT_EQ(router.router_stats().cache_hits, 1u);
  EXPECT_EQ(router.router_stats().cache_misses, 2u);
}

// --------------------------------------------------------------------------
// The randomized coherence fuzzer: a cached Router against an uncached
// reference, interleaving point / select / analytic / masked queries with
// mutation batches, swept over semiring × threads × shards × sync/async.
// Every answer must be memcmp-identical, and the cache counters must be
// invariant across thread counts (probe at submit, install at settle,
// both sequenced by the submit-then-wait discipline).

template <semiring::Semiring Sr, typename Gen>
serve::Query<Sr> random_query(Index n, util::Xoshiro256& rng, Gen&& entry) {
  using Q = serve::Query<Sr>;
  // Draw the query's shape AND its seed from a small pool so exact
  // repeats are common — that is what a result cache is for.
  const auto kind = rng.bounded(4);
  const std::uint64_t qseed = 1000 + rng.bounded(6) * 17;
  switch (kind) {
    case 0:  // point lookup
      return Q::point(static_cast<Index>(qseed % static_cast<std::uint64_t>(n)),
                      n);
    case 1: {  // row extraction
      std::vector<Index> rows;
      util::Xoshiro256 qr(qseed);
      for (int i = 0; i < 3; ++i) {
        rows.push_back(static_cast<Index>(
            qr.bounded(static_cast<std::uint64_t>(n))));
      }
      return Q::select(rows, n);
    }
    case 2:  // analytic
      return Q::analytic(random_matrix<Sr>(2, n, 10, qseed, entry));
    default: {  // masked, alternating sense
      auto q = Q::masked(random_matrix<Sr>(2, n, 10, qseed, entry),
                         random_matrix<Sr>(2, n, 2 * n, qseed + 1, entry),
                         {.complement = qseed % 2 == 1});
      return q;
    }
  }
}

template <typename T, typename Gen>
UpdateBatch<T> random_update_batch(Index n, util::Xoshiro256& rng,
                                   Gen&& entry) {
  UpdateBatch<T> ops;
  const int count = 4 + static_cast<int>(rng.bounded(8));
  for (int i = 0; i < count; ++i) {
    const auto r = static_cast<Index>(rng.bounded(
        static_cast<std::uint64_t>(n)));
    const auto c = static_cast<Index>(rng.bounded(
        static_cast<std::uint64_t>(n)));
    if (rng.bounded(4) == 0) {
      ops.push_back(Update<T>::erased(r, c));
    } else {
      ops.push_back(Update<T>::assign(r, c, entry(rng)));
    }
  }
  return ops;
}

/// One fuzz run: `ops` interleaved reads and mutations through a cached
/// Router and an uncached reference with identical config; every answer
/// byte-compared. Returns the cached engine's cache counters.
template <semiring::Semiring Sr, typename Gen>
typename serve::ResultCache<Sr>::Stats fuzz_run(int n_shards, bool async,
                                                std::uint64_t seed, int ops,
                                                std::size_t cache_bytes,
                                                Gen&& entry) {
  using T = typename Sr::value_type;
  const Index n = 48;
  const auto base = random_matrix<Sr>(n, n, 6 * n, seed, entry);

  typename serve::Router<Sr>::Config cfg;
  cfg.n_shards = n_shards;
  cfg.executor.cache_bytes = cache_bytes;
  cfg.executor.async = async;
  serve::Router<Sr> cached(base, cfg);
  auto ucfg = cfg;
  ucfg.executor.cache_bytes = 0;
  serve::Router<Sr> uncached(base, ucfg);

  util::Xoshiro256 rng(seed * 77 + 13);
  for (int op = 0; op < ops; ++op) {
    if (rng.bounded(10) < 2) {
      const auto batch = random_update_batch<T>(n, rng, entry);
      cached.mutate(batch);
      uncached.mutate(batch);
      continue;
    }
    const auto q = random_query<Sr>(n, rng, entry);
    const auto tc = cached.submit(q);
    const auto tu = uncached.submit(q);
    // Submit-then-wait: the total order of probes and installs is the op
    // order, which is what makes the counters thread-count invariant.
    const auto& rc = cached.wait(tc);
    const auto& ru = uncached.wait(tu);
    EXPECT_TRUE(bytes_identical(rc, ru))
        << "op=" << op << " shards=" << n_shards << " async=" << async
        << " seed=" << seed;
  }
  return cached.cache_stats();
}

template <semiring::Semiring Sr, typename Gen>
void coherence_sweep(std::uint64_t seed, Gen&& entry) {
  std::uint64_t total_hits = 0;
  for (const int shards : {1, 2, 4}) {
    for (const bool async : {false, true}) {
      std::optional<typename serve::ResultCache<Sr>::Stats> ref;
      for (const int nt : {1, 2, 8}) {
        ThreadGuard guard(nt);
        const auto st = fuzz_run<Sr>(shards, async,
                                     seed + static_cast<std::uint64_t>(shards),
                                     40, std::size_t{1} << 16, entry);
        if (!ref) {
          ref = st;
          total_hits += st.hits;
          EXPECT_GT(st.hits, 0u)
              << "shards=" << shards << " async=" << async
              << ": repeat-heavy mix produced no hit — cache never engaged";
        } else {
          // Thread-count invariance of every cache counter.
          EXPECT_EQ(st.hits, ref->hits) << "shards=" << shards;
          EXPECT_EQ(st.misses, ref->misses) << "shards=" << shards;
          EXPECT_EQ(st.evictions, ref->evictions) << "shards=" << shards;
          EXPECT_EQ(st.stale_drops, ref->stale_drops) << "shards=" << shards;
          EXPECT_EQ(st.installs, ref->installs) << "shards=" << shards;
          EXPECT_EQ(st.bytes, ref->bytes) << "shards=" << shards;
        }
      }
    }
  }
  EXPECT_GT(total_hits, 0u);
}

TEST(CacheCoherenceFuzz, PlusTimes) {
  coherence_sweep<semiring::PlusTimes<double>>(901, dbl_entry);
}

TEST(CacheCoherenceFuzz, MinPlus) {
  coherence_sweep<semiring::MinPlus<double>>(902, dbl_entry);
}

TEST(CacheCoherenceFuzz, UnionIntersect) {
  coherence_sweep<semiring::UnionIntersect>(903, vs_entry);
}

// A tight-budget variant so LRU eviction runs inside the coherence loop
// too (the sweep above mostly fits): eviction order — and therefore every
// answer — must still be deterministic at any thread count.
TEST(CacheCoherenceFuzz, TightBudgetForcesEvictionsDeterministically) {
  std::optional<serve::ResultCache<S>::Stats> ref;
  for (const int nt : {1, 2, 8}) {
    ThreadGuard guard(nt);
    const auto st =
        fuzz_run<S>(2, false, 904, 60, std::size_t{1} << 11, dbl_entry);
    if (!ref) {
      ref = st;
      EXPECT_GT(st.evictions, 0u) << "budget too large to force eviction";
    } else {
      EXPECT_EQ(st.hits, ref->hits);
      EXPECT_EQ(st.misses, ref->misses);
      EXPECT_EQ(st.evictions, ref->evictions);
      EXPECT_EQ(st.bytes, ref->bytes);
    }
  }
}

}  // namespace

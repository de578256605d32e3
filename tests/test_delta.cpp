// Tests for live mutation: DeltaBase (immutable main + last-wins delta,
// epoch-versioned snapshots, compaction) and its threading through the
// serve::Service interface (the Router, at 1 and N shards).
//
// The contract under test is the PR's acceptance bar: at EVERY epoch,
// results served against main ⊕ delta are bit-identical — float bits
// included — to a from-scratch rebuild of the base with the same
// mutations applied, for every semiring family, strategy, thread count,
// sharded and unsharded, sync and async. Compaction changes the
// representation, never a result, and a reader holding an old snapshot
// keeps getting the old epoch's answers while new epochs publish.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "sparse/delta.hpp"
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

double dbl_entry(util::Xoshiro256& r) { return r.uniform(0.5, 1.5); }

/// The trusted reference: base content as a map, mutations applied in
/// order (last write per key wins, erase removes), rebuilt from scratch.
template <typename T>
struct RefModel {
  Index nrows, ncols;
  std::map<std::pair<Index, Index>, T> cells;

  explicit RefModel(const Matrix<T>& base)
      : nrows(base.nrows()), ncols(base.ncols()) {
    for (const auto& t : base.to_triples()) cells[{t.row, t.col}] = t.val;
  }

  void grow(Index r, Index c) {
    nrows = std::max(nrows, r);
    ncols = std::max(ncols, c);
  }

  void apply(const UpdateBatch<T>& ops) {
    for (const auto& op : ops) {
      if (op.erase) {
        cells.erase({op.row, op.col});
      } else {
        cells[{op.row, op.col}] = op.val;
      }
    }
  }

  Matrix<T> rebuild(const T& zero) const {
    std::vector<Triple<T>> t;
    t.reserve(cells.size());
    for (const auto& [rc, v] : cells) t.push_back({rc.first, rc.second, v});
    return Matrix<T>::from_unique_triples(nrows, ncols, std::move(t), zero);
  }
};

/// A mutation batch with intra-batch key collisions (last-wins must
/// resolve within ONE batch too), erases of present and absent keys, and
/// assigns to fresh and existing keys.
template <typename T, typename Gen>
UpdateBatch<T> random_ops(const RefModel<T>& ref, util::Xoshiro256& rng,
                          int count, Gen&& entry) {
  UpdateBatch<T> ops;
  std::vector<std::pair<Index, Index>> present;
  present.reserve(ref.cells.size());
  for (const auto& [rc, _] : ref.cells) present.push_back(rc);
  for (int i = 0; i < count; ++i) {
    const auto kind = rng.bounded(8);
    if (kind < 2 && !present.empty()) {
      // erase a present key (tombstone that must drop a real entry)
      const auto& rc = present[rng.bounded(present.size())];
      ops.push_back(Update<T>::erased(rc.first, rc.second));
    } else if (kind == 2) {
      // erase a (probably) absent key — must be a no-op in the result
      ops.push_back(Update<T>::erased(
          static_cast<Index>(rng.bounded(
              static_cast<std::uint64_t>(ref.nrows))),
          static_cast<Index>(rng.bounded(
              static_cast<std::uint64_t>(ref.ncols)))));
    } else if (kind == 3 && !present.empty()) {
      // overwrite a present key
      const auto& rc = present[rng.bounded(present.size())];
      ops.push_back(Update<T>::assign(rc.first, rc.second, entry(rng)));
    } else {
      ops.push_back(Update<T>::assign(
          static_cast<Index>(rng.bounded(
              static_cast<std::uint64_t>(ref.nrows))),
          static_cast<Index>(rng.bounded(
              static_cast<std::uint64_t>(ref.ncols))),
          entry(rng)));
    }
    if (i % 7 == 6 && !ops.empty()) {
      // repeat the previous key with a new op: intra-batch last-wins
      auto prev = ops.back();
      ops.push_back(prev.erase ? Update<T>::assign(prev.row, prev.col,
                                                   entry(rng))
                               : Update<T>::erased(prev.row, prev.col));
    }
  }
  return ops;
}

/// Query mix against an n×n base: analytic, masked (both senses), select,
/// empty lhs.
template <semiring::Semiring Sr, typename Gen>
std::vector<serve::Query<Sr>> query_mix(Index n, std::uint64_t seed,
                                        Gen&& entry) {
  using Q = serve::Query<Sr>;
  std::vector<Q> qs;
  qs.push_back(Q::analytic(random_matrix<Sr>(5, n, 30, seed + 1, entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(4, n, 24, seed + 2, entry),
                         random_matrix<Sr>(4, n, 40, seed + 3, entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(3, n, 16, seed + 4, entry),
                         random_matrix<Sr>(3, n, 16, seed + 5, entry),
                         {.complement = true}));
  qs.push_back(Q::select({0, n / 3, n - 1}, n));
  qs.push_back(Q::analytic(random_matrix<Sr>(2, n, 0, seed + 6, entry)));
  return qs;
}

// ---- DeltaBase unit behavior ---------------------------------------------

TEST(DeltaBase, MutateAssignEraseResurrect) {
  auto base = Matrix<double>::from_triples<S>(
      6, 6, {{0, 0, 1.0}, {2, 3, 2.0}, {5, 5, 3.0}});
  DeltaBase<S> db(base);
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.snapshot()->materialize(), base);

  db.mutate({Update<double>::assign(1, 1, 9.0)});       // insert
  db.mutate({Update<double>::assign(2, 3, 8.0)});       // update
  db.mutate({Update<double>::erased(5, 5)});            // delete
  db.mutate({Update<double>::erased(0, 5)});            // delete absent
  EXPECT_EQ(db.epoch(), 4u);

  const auto want = Matrix<double>::from_triples<S>(
      6, 6, {{0, 0, 1.0}, {1, 1, 9.0}, {2, 3, 8.0}});
  EXPECT_EQ(db.snapshot()->materialize(), want);

  db.mutate({Update<double>::assign(5, 5, 4.0)});       // resurrect
  EXPECT_EQ(db.snapshot()->materialize().get(5, 5), 4.0);
  EXPECT_EQ(db.epoch(), 5u);
}

TEST(DeltaBase, IntraBatchLastWins) {
  auto base = Matrix<double>::from_triples<S>(4, 4, {{0, 0, 1.0}});
  DeltaBase<S> db(base);
  // One batch, three writes to one key: only the last survives.
  db.mutate({Update<double>::assign(0, 0, 2.0),
             Update<double>::erased(0, 0),
             Update<double>::assign(0, 0, 7.0)});
  EXPECT_EQ(db.epoch(), 1u);
  EXPECT_EQ(db.snapshot()->materialize().get(0, 0), 7.0);
  // And ending on the tombstone deletes.
  db.mutate({Update<double>::assign(1, 1, 5.0),
             Update<double>::erased(1, 1)});
  EXPECT_EQ(db.snapshot()->materialize().get(1, 1), std::nullopt);
}

TEST(DeltaBase, NegativeKeyThrowsBeforeApplying) {
  auto base = Matrix<double>::from_triples<S>(4, 4, {{0, 0, 1.0}});
  DeltaBase<S> db(base);
  // A batch with a bad key must not half-apply its good prefix.
  EXPECT_THROW(db.mutate({Update<double>::assign(1, 1, 2.0),
                          Update<double>::assign(-1, 0, 3.0)}),
               std::out_of_range);
  EXPECT_THROW(db.mutate({Update<double>::erased(0, -1)}), std::out_of_range);
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.snapshot()->materialize(), base);
}

// ---- key-space growth: mutations beyond the constructed shape ------------

TEST(DeltaBase, MutationBeyondShapeGrowsKeySpace) {
  auto base = Matrix<double>::from_triples<S>(4, 4, {{0, 0, 1.0}, {2, 3, 5.0}});
  DeltaBase<S> db(base);
  // One batch mixing in-shape and beyond-shape keys: no rebuild needed.
  db.mutate({Update<double>::assign(1, 1, 2.0),
             Update<double>::assign(6, 9, 7.0)});
  EXPECT_EQ(db.nrows(), 7);
  EXPECT_EQ(db.ncols(), 10);
  const auto snap = db.snapshot();
  EXPECT_EQ(snap->nrows(), 7);
  EXPECT_EQ(snap->ncols(), 10);
  // The kernel-facing view advertises the grown shape too.
  EXPECT_EQ(snap->base_view().nrows, 7);
  EXPECT_EQ(snap->base_view().ncols, 10);
  // materialize() == a from-scratch rebuild at the grown shape.
  const auto ref = Matrix<double>::from_triples<S>(
      7, 10, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 3, 5.0}, {6, 9, 7.0}});
  EXPECT_EQ(snap->materialize(), ref);
  // Until compaction the grown region lives in the overlay; main still has
  // the constructed shape.
  EXPECT_EQ(snap->main->nrows(), 4);
  // The compaction swap folds growth into the new main.
  db.compact();
  EXPECT_EQ(db.main_matrix().nrows(), 7);
  EXPECT_EQ(db.main_matrix().ncols(), 10);
  EXPECT_EQ(db.snapshot()->materialize(), ref);
  // And mutations keep composing after the swap.
  db.mutate({Update<double>::erased(6, 9), Update<double>::assign(8, 2, 3.0)});
  const auto ref2 = Matrix<double>::from_triples<S>(
      9, 10, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 3, 5.0}, {8, 2, 3.0}});
  EXPECT_EQ(db.snapshot()->materialize(), ref2);
}

TEST(DeltaBase, GrowthPreservesPinnedSnapshotsAndQueries) {
  auto base = Matrix<double>::from_triples<S>(3, 3, {{0, 1, 2.0}, {2, 2, 4.0}});
  DeltaBase<S> db(base);
  const auto pinned = db.snapshot();  // epoch 0, 3×3
  db.mutate({Update<double>::assign(5, 5, 9.0)});
  // The pinned reader keeps its epoch's shape and answers.
  EXPECT_EQ(pinned->nrows(), 3);
  EXPECT_EQ(pinned->materialize(), base);
  // Queries against the grown snapshot match a from-scratch rebuild.
  const auto grown = db.snapshot();
  const auto rebuild = Matrix<double>::from_triples<S>(
      6, 6, {{0, 1, 2.0}, {2, 2, 4.0}, {5, 5, 9.0}});
  auto probe = Matrix<double>::from_triples<S>(1, 6, {{0, 5, 1.0}});
  const auto q = serve::Query<S>::analytic(probe);
  const auto got = serve::run_single<S>(grown->base_view(), q);
  const auto want = serve::run_single<S>(
      sparse::detail::BaseView<double>(rebuild), q);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.get(0, 5), 9.0);
}

TEST(DeltaBase, GrowthWithBackgroundCompactionStaysConsistent) {
  // Growth must serialize with the background compactor (the frozen
  // generation and the active delta have to agree on shape); interleaving
  // growing batches with threshold-armed compactions must end bit-identical
  // to a from-scratch rebuild.
  auto base = Matrix<double>::from_triples<S>(4, 4, {{0, 0, 1.0}});
  RefModel<double> ref(base);
  DeltaBase<S> db(base, {.delta_buffer = 8,
                         .delta_fanout = 2,
                         .compact_threshold = 16,
                         .background = true});
  util::Xoshiro256 rng(77);
  Index rows = 4, cols = 4;
  for (int round = 0; round < 8; ++round) {
    UpdateBatch<double> ops;
    for (int k = 0; k < 12; ++k) {
      const auto r = static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(rows) + 2));
      const auto c = static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(cols) + 2));
      ops.push_back(Update<double>::assign(
          r, c, static_cast<double>(1 + rng.bounded(97))));
      rows = std::max(rows, r + 1);
      cols = std::max(cols, c + 1);
    }
    db.mutate(ops);
    ref.grow(rows, cols);
    ref.apply(ops);
  }
  db.compact();
  EXPECT_EQ(db.nrows(), rows);
  EXPECT_EQ(db.ncols(), cols);
  EXPECT_EQ(db.snapshot()->materialize(), ref.rebuild(0.0));
}

TEST(DeltaBase, CompactionChangesRepresentationNeverResults) {
  const auto base = random_matrix<S>(32, 32, 200, 11, dbl_entry);
  RefModel<double> ref(base);
  DeltaBase<S> db(base, {.delta_buffer = 8, .delta_fanout = 2});
  util::Xoshiro256 rng(12);
  for (int round = 0; round < 4; ++round) {
    const auto ops = random_ops(ref, rng, 25, dbl_entry);
    ref.apply(ops);
    db.mutate(ops);
  }
  const auto epoch_before = db.epoch();
  const auto snap_before = db.snapshot();
  const auto want = ref.rebuild(S::zero());
  EXPECT_EQ(snap_before->materialize(), want);
  EXPECT_GT(db.delta_entries(), 0u);

  db.compact();
  // Same epoch, same results; emptier representation; new main holds the
  // folded content.
  EXPECT_EQ(db.epoch(), epoch_before);
  EXPECT_EQ(db.compactions(), 1u);
  EXPECT_EQ(db.delta_entries(), 0u);
  EXPECT_EQ(db.snapshot()->materialize(), want);
  EXPECT_EQ(db.main_matrix(), want);
  EXPECT_TRUE(db.snapshot()->plain());
  // The pre-compaction snapshot a reader may still hold answers the same.
  EXPECT_EQ(snap_before->materialize(), want);
}

TEST(DeltaBase, SnapshotServesPinnedEpochForever) {
  const auto base = random_matrix<S>(24, 24, 120, 21, dbl_entry);
  RefModel<double> ref(base);
  DeltaBase<S> db(base);
  util::Xoshiro256 rng(22);

  const auto ops0 = random_ops(ref, rng, 20, dbl_entry);
  ref.apply(ops0);
  db.mutate(ops0);
  const auto pinned = db.snapshot();           // epoch 1
  const auto want_at_1 = ref.rebuild(S::zero());
  const auto q = serve::Query<S>::analytic(
      random_matrix<S>(3, 24, 18, 23, dbl_entry));
  const auto r_at_1 = serve::run_single(*pinned, q);
  EXPECT_EQ(r_at_1, serve::run_single(want_at_1, q));

  // Epochs 2..5 publish and a compaction lands; the pinned snapshot's
  // answers must not move.
  for (int e = 0; e < 4; ++e) {
    const auto ops = random_ops(ref, rng, 20, dbl_entry);
    ref.apply(ops);
    db.mutate(ops);
  }
  db.compact();
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(serve::run_single(*pinned, q), r_at_1);
  // And the live snapshot serves the new state.
  EXPECT_EQ(db.snapshot()->materialize(), ref.rebuild(S::zero()));
}

TEST(DeltaBase, FloatBitsIdenticalToRebuild) {
  // Byte-level check: to_triples of the overlay-served product vs the
  // rebuilt-base product, doubles compared by memcmp, not ==.
  const auto base = random_matrix<S>(40, 40, 300, 31, dbl_entry);
  RefModel<double> ref(base);
  DeltaBase<S> db(base);
  util::Xoshiro256 rng(32);
  const auto ops = random_ops(ref, rng, 60, dbl_entry);
  ref.apply(ops);
  db.mutate(ops);
  const auto q = serve::Query<S>::analytic(
      random_matrix<S>(6, 40, 50, 33, dbl_entry));
  const auto got = serve::run_single(*db.snapshot(), q).to_triples();
  const auto want =
      serve::run_single(ref.rebuild(S::zero()), q).to_triples();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(got.empty());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row);
    EXPECT_EQ(got[i].col, want[i].col);
    EXPECT_EQ(std::memcmp(&got[i].val, &want[i].val, sizeof(double)), 0)
        << "float bits differ at triple " << i;
  }
}

// ---- ShardMap mutation scatter -------------------------------------------

TEST(ShardMapUpdates, ScatterUpdatesRebasesRowsKeepsOrder) {
  auto base = random_matrix<S>(12, 8, 30, 41, dbl_entry);
  auto map = serve::ShardMap<double>::with_cuts(std::move(base),
                                                {0, 4, 4, 12});
  UpdateBatch<double> ops;
  ops.push_back(Update<double>::assign(0, 1, 1.0));   // shard 0, local 0
  ops.push_back(Update<double>::assign(11, 2, 2.0));  // shard 2, local 7
  ops.push_back(Update<double>::erased(4, 3));        // shard 2, local 0
  ops.push_back(Update<double>::assign(3, 0, 3.0));   // shard 0, local 3
  ops.push_back(Update<double>::erased(0, 1));        // shard 0, local 0
  const auto slices = map.scatter_updates(ops);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_TRUE(slices[1].empty());  // zero-height shard gets nothing
  ASSERT_EQ(slices[0].size(), 3u);
  ASSERT_EQ(slices[2].size(), 2u);
  // Order within a shard preserved (last-wins depends on it).
  EXPECT_EQ(slices[0][0].row, 0);
  EXPECT_FALSE(slices[0][0].erase);
  EXPECT_EQ(slices[0][1].row, 3);
  EXPECT_EQ(slices[0][2].row, 0);
  EXPECT_TRUE(slices[0][2].erase);
  // Rows rebased, cols untouched.
  EXPECT_EQ(slices[2][0].row, 7);
  EXPECT_EQ(slices[2][0].col, 2);
  EXPECT_EQ(slices[2][1].row, 0);
  EXPECT_TRUE(slices[2][1].erase);
  EXPECT_THROW(map.scatter_updates({Update<double>::assign(12, 0, 1.0)}),
               std::out_of_range);
  EXPECT_THROW(map.scatter_updates({Update<double>::assign(0, 8, 1.0)}),
               std::out_of_range);
}

// ---- the Service-level epoch sweep (the acceptance bar) ------------------

/// Drive ONE engine through E epochs of mutation↔query interleaving and
/// require bit-identity against the from-scratch rebuild at every epoch.
template <semiring::Semiring Sr, typename Gen>
void sweep_engine(serve::Service<Sr>& svc, Index n,
                  const std::vector<UpdateBatch<typename Sr::value_type>>&
                      batches,
                  const std::vector<Matrix<typename Sr::value_type>>&
                      rebuilt,
                  std::uint64_t qseed, Gen&& entry) {
  for (std::size_t e = 0; e < rebuilt.size(); ++e) {
    if (e > 0) svc.mutate(batches[e - 1]);
    const auto qs = query_mix<Sr>(n, qseed + 100 * e, entry);
    std::vector<std::size_t> tickets;
    tickets.reserve(qs.size());
    for (const auto& q : qs) tickets.push_back(svc.submit(q));
    for (std::size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(svc.wait(tickets[i]), serve::run_single(rebuilt[e], qs[i]))
          << "epoch " << e << ", query " << i;
    }
  }
}

template <semiring::Semiring Sr, typename Gen>
void epoch_bit_identity_sweep(Index n, std::uint64_t seed, Gen&& entry) {
  using T = typename Sr::value_type;
  const auto base = random_matrix<Sr>(n, n, 6 * static_cast<int>(n), seed,
                                      entry);
  // Pre-generate the epochs and their reference rebuilds once.
  RefModel<T> ref(base);
  std::vector<UpdateBatch<T>> batches;
  std::vector<Matrix<T>> rebuilt;
  rebuilt.push_back(ref.rebuild(Sr::zero()));
  util::Xoshiro256 rng(seed + 7);
  for (int e = 0; e < 4; ++e) {
    batches.push_back(random_ops(ref, rng, 30, entry));
    ref.apply(batches.back());
    rebuilt.push_back(ref.rebuild(Sr::zero()));
  }

  for (const int nt : {1, 2, 8}) {
    ThreadGuard guard(nt);
    // 1-shard engine, every strategy, tiny delta buffers (cascades).
    for (const auto strat :
         {MxmStrategy::kAuto, MxmStrategy::kGustavson, MxmStrategy::kHash,
          MxmStrategy::kSorted}) {
      serve::Router<Sr> ex(
          base,
          {.executor = {.strategy = strat,
                        .delta = {.delta_buffer = 16, .delta_fanout = 2}}});
      sweep_engine<Sr>(ex, n, batches, rebuilt, seed + 50, entry);
    }
    // Sharded (3 uneven shards) and async variants, kAuto.
    for (const bool async : {false, true}) {
      for (const int shards : {1, 3}) {
        typename serve::Router<Sr>::Config cfg;
        cfg.executor.async = async;
        cfg.executor.delta = {.delta_buffer = 16, .delta_fanout = 2};
        if (shards > 1) {
          cfg.cuts = {0, n / 4, n / 2, n};  // uneven on purpose
        }
        serve::Router<Sr> router(base, cfg);
        sweep_engine<Sr>(router, n, batches, rebuilt, seed + 60, entry);
      }
    }
  }
}

TEST(DeltaServe, ArithmeticSemiringEverywhere) {
  epoch_bit_identity_sweep<S>(48, 501, dbl_entry);
}

TEST(DeltaServe, TropicalSemiringEverywhere) {
  epoch_bit_identity_sweep<semiring::MinPlus<double>>(
      48, 502, [](util::Xoshiro256& r) { return r.uniform(0.0, 10.0); });
}

TEST(DeltaServe, SetSemiringEverywhere) {
  epoch_bit_identity_sweep<semiring::UnionIntersect>(
      40, 503, [](util::Xoshiro256& r) {
        return semiring::ValueSet{static_cast<std::int64_t>(r.bounded(16)),
                                  static_cast<std::int64_t>(r.bounded(16))};
      });
}

// ---- service stats + epochs through the engines --------------------------

TEST(DeltaServe, StatsCarryMutationsAndServedEpoch) {
  const auto base = random_matrix<S>(24, 24, 120, 61, dbl_entry);
  serve::Router<S> ex(base);
  serve::Service<S>& svc = ex;
  EXPECT_EQ(svc.epoch(), 0u);
  svc.mutate({Update<double>::assign(0, 0, 2.0)});
  const auto e2 = svc.mutate({Update<double>::assign(1, 1, 3.0)});
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(svc.epoch(), 2u);
  const auto t = svc.submit(serve::Query<S>::analytic(
      random_matrix<S>(2, 24, 10, 62, dbl_entry)));
  (void)svc.wait(t);
  const auto st = svc.stats();
  EXPECT_EQ(st.mutations, 2u);
  EXPECT_EQ(st.epoch, 2u);  // the flushed batch served epoch 2
}

TEST(DeltaServe, RouterEpochCountsLogicalBatches) {
  const auto base = random_matrix<S>(24, 24, 120, 71, dbl_entry);
  serve::Router<S> router(base, {.n_shards = 3});
  EXPECT_EQ(router.epoch(), 0u);
  // One logical batch straddling every shard: ONE router epoch.
  UpdateBatch<double> ops;
  for (Index r = 0; r < 24; r += 4) {
    ops.push_back(Update<double>::assign(r, 0, 1.0));
  }
  EXPECT_EQ(router.mutate(0u, ops), 1u);
  EXPECT_EQ(router.epoch(), 1u);
  const auto rs = router.router_stats();
  EXPECT_EQ(rs.mutations, 1u);
  EXPECT_EQ(rs.epoch, 1u);
  // A batch touching one shard still advances the logical epoch.
  EXPECT_EQ(router.mutate(0u, {Update<double>::assign(0, 1, 2.0)}), 2u);
  EXPECT_EQ(router.epoch(), 2u);
}

TEST(DeltaServe, MutationsCountOncePerLogicalBatch) {
  // ServeStats::mutations and TenantStats::mutations count logical
  // batches, like the epoch: a batch straddling every shard is ONE
  // mutation, not one per touched shard.
  const auto base = random_matrix<S>(24, 24, 120, 73, dbl_entry);
  for (const int shards : {1, 3}) {
    serve::Router<S> router(base, {.n_shards = shards});
    UpdateBatch<double> ops;
    for (Index r = 0; r < 24; r += 4) {
      ops.push_back(Update<double>::assign(r, 1, 1.0));
    }
    router.mutate(7u, ops);
    router.mutate(7u, {Update<double>::assign(0, 2, 2.0)});
    router.mutate(8u, ops);
    EXPECT_EQ(router.epoch(), 3u) << "shards=" << shards;
    EXPECT_EQ(router.router_stats().mutations, 3u) << "shards=" << shards;
    EXPECT_EQ(router.stats().mutations, 3u) << "shards=" << shards;
    EXPECT_EQ(router.tenant_stats(7).mutations, 2u) << "shards=" << shards;
    EXPECT_EQ(router.tenant_stats(8).mutations, 1u) << "shards=" << shards;
    EXPECT_EQ(router.tenants(), (std::vector<serve::TenantId>{7, 8}));
    EXPECT_NE(router.metrics_text().find("hyperspace_serve_mutations 3\n"),
              std::string::npos)
        << "shards=" << shards;
  }
}

TEST(DeltaServe, OutOfShapeMutationIsANoOpOnEveryShard) {
  // One key outside the logical shape among valid ones: the whole batch
  // throws before any shard applies anything — no epoch moves, no shard's
  // delta grows, and every answer stays what it was.
  const Index n = 16;
  const auto base = random_matrix<S>(n, n, 80, 75, dbl_entry);
  const auto q =
      serve::Query<S>::analytic(random_matrix<S>(3, n, 3 * n, 76, dbl_entry));
  for (const int shards : {1, 3}) {
    serve::Router<S> router(base, {.n_shards = shards});
    router.mutate({Update<double>::assign(1, 1, 4.0)});
    const auto before = router.wait(router.submit(q));
    std::vector<std::uint64_t> shard_epochs;
    for (std::size_t s = 0; s < router.n_shards(); ++s) {
      shard_epochs.push_back(router.shard_executor(s).delta_base().epoch());
    }
    for (const auto& bad : {Update<double>::assign(20, 0, 1.0),
                            Update<double>::assign(0, n, 1.0),
                            Update<double>::erased(-1, 0)}) {
      UpdateBatch<double> ops{Update<double>::assign(0, 0, 9.0),
                              Update<double>::assign(n - 1, 3, 9.0), bad,
                              Update<double>::erased(1, 1)};
      EXPECT_THROW(router.mutate(ops), std::out_of_range)
          << "shards=" << shards;
    }
    EXPECT_EQ(router.epoch(), 1u) << "shards=" << shards;
    EXPECT_EQ(router.stats().mutations, 1u) << "shards=" << shards;
    for (std::size_t s = 0; s < router.n_shards(); ++s) {
      const auto& db = router.shard_executor(s).delta_base();
      EXPECT_EQ(db.nrows(), router.map().height(s)) << "shard=" << s;
      EXPECT_EQ(db.ncols(), n) << "shard=" << s;
      EXPECT_EQ(db.epoch(), shard_epochs[s]) << "shard=" << s;
    }
    EXPECT_EQ(router.wait(router.submit(q)), before) << "shards=" << shards;
  }
}

// ---- in-flight batches pin their epoch; liveness under churn -------------

TEST(DeltaServe, AsyncMutationQueryInterleavingStress) {
  // A mutator thread publishes epochs (with background compaction armed at
  // a tiny threshold) while query threads submit against the async
  // 1-shard engine. Every answer must match the rebuild at SOME epoch in the
  // mutation order — each batch serves exactly the epoch it pinned.
  const Index n = 32;
  const auto base = random_matrix<S>(n, n, 160, 81, dbl_entry);
  RefModel<double> ref(base);
  constexpr int kEpochs = 24;
  std::vector<UpdateBatch<double>> batches;
  std::vector<Matrix<double>> rebuilt;
  rebuilt.push_back(ref.rebuild(S::zero()));
  util::Xoshiro256 rng(82);
  for (int e = 0; e < kEpochs; ++e) {
    batches.push_back(random_ops(ref, rng, 20, dbl_entry));
    ref.apply(batches.back());
    rebuilt.push_back(ref.rebuild(S::zero()));
  }

  serve::Router<S> ex(base, {.executor = {.async = true,
                                          .delta = {.delta_buffer = 16,
                                                    .delta_fanout = 2,
                                                    .compact_threshold = 32,
                                                    .background = true}}});
  serve::Service<S>& svc = ex;

  const auto q =
      serve::Query<S>::analytic(random_matrix<S>(3, n, 20, 83, dbl_entry));
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const auto t = svc.submit(q);
        const auto& got = svc.wait(t);
        bool ok = false;
        for (const auto& want : rebuilt) {
          if (got == serve::run_single(want, q)) {
            ok = true;
            break;
          }
        }
        if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& ops : batches) {
    svc.mutate(ops);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Quiesced: the final epoch serves the final rebuild, compactions ran.
  svc.flush();
  const auto t = svc.submit(q);
  EXPECT_EQ(svc.wait(t), serve::run_single(rebuilt.back(), q));
  const auto& db = ex.shard_executor(0).delta_base();
  EXPECT_EQ(db.epoch(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_GT(db.compactions(), 0u);
}

}  // namespace

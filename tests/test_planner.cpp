// Tests for the §IV-driven query planner: annihilation prechecks must skip
// exactly the products that are provably zero and never change results.

#include <gtest/gtest.h>

#include "db/planner.hpp"
#include "semiring/all.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::array;
using namespace hyperspace::db;
using S = semiring::PlusTimes<double>;
using Arr = AssocArray<S>;

Arr block(std::int64_t key_base, std::uint64_t seed, int entries = 20) {
  util::Xoshiro256 rng(seed);
  std::vector<Key> k1, k2;
  std::vector<double> v;
  for (int i = 0; i < entries; ++i) {
    k1.emplace_back(key_base + static_cast<std::int64_t>(rng.bounded(16)));
    k2.emplace_back(key_base + static_cast<std::int64_t>(rng.bounded(16)));
    v.push_back(1.0 + static_cast<double>(rng.bounded(4)));
  }
  return Arr(k1, k2, v);
}

TEST(Planner, MtimesSkipsDisjointInnerKeys) {
  PlanStats stats;
  const auto a = block(0, 1);
  const auto b = block(1000, 2);
  const auto r = planned_mtimes(a, b, &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.products_skipped, 1);
  EXPECT_EQ(stats.products_evaluated, 0);
}

TEST(Planner, MtimesEvaluatesOverlappingKeys) {
  PlanStats stats;
  const auto a = block(0, 1);
  const auto b = block(0, 2);
  const auto r = planned_mtimes(a, b, &stats);
  EXPECT_EQ(r, mtimes(a, b));
  EXPECT_EQ(stats.products_evaluated, 1);
  EXPECT_EQ(stats.products_skipped, 0);
}

TEST(Planner, MultSkipsDisjointPatterns) {
  PlanStats stats;
  const auto r = planned_mult(block(0, 1), block(1000, 2), &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.mults_skipped, 1);
}

TEST(Planner, MultMatchesUnplanned) {
  PlanStats stats;
  const auto a = block(0, 3);
  const auto b = block(0, 4);
  EXPECT_EQ(planned_mult(a, b, &stats), mult(a, b));
}

TEST(Planner, MultOfProductFullPrecheck) {
  PlanStats stats;
  // row(A) disjoint from row(B): §IV form 1 fires without computing BC.
  const auto a = block(0, 5);
  const auto b = block(1000, 6);
  const auto c = block(1000, 7);
  const auto r = planned_mult_of_product(a, b, c, &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.products_evaluated, 0);
  EXPECT_GE(stats.products_skipped + stats.mults_skipped, 1);
}

TEST(Planner, MultOfProductMatchesDirectEvaluation) {
  const auto a = block(0, 8);
  const auto b = block(0, 9);
  const auto c = block(0, 10);
  EXPECT_EQ(planned_mult_of_product(a, b, c),
            mult(a, mtimes(b, c)));
}

TEST(Planner, ChainEarlyExit) {
  PlanStats stats;
  const std::vector<Arr> chain = {block(0, 1), block(0, 2), block(5000, 3),
                                  block(5000, 4)};
  const auto r = planned_chain(chain, &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.products_evaluated, 0);  // precheck fired before any work
  EXPECT_EQ(stats.products_skipped, 3);    // every link of the chain
}

TEST(Planner, ChainEarlyExitCountsWithReusedStats) {
  // A stats object carried across calls: products evaluated by earlier
  // calls must not eat into the chain's skip count.
  PlanStats stats;
  for (std::uint64_t s = 0; s < 3; ++s) {
    (void)planned_mtimes(block(0, 30 + s), block(0, 40 + s), &stats);
  }
  ASSERT_EQ(stats.products_evaluated, 3);
  const int skipped = stats.products_skipped;
  const std::vector<Arr> chain = {block(0, 15), block(5000, 16),
                                  block(5000, 17)};
  EXPECT_TRUE(planned_chain(chain, &stats).empty());
  EXPECT_EQ(stats.products_skipped - skipped, 2);
  EXPECT_EQ(stats.products_evaluated, 3);
}

TEST(Planner, ChainMatchesFoldWhenConnected) {
  const std::vector<Arr> chain = {block(0, 11), block(0, 12), block(0, 13)};
  const auto expect = mtimes(mtimes(chain[0], chain[1]), chain[2]);
  EXPECT_EQ(planned_chain(chain), expect);
}

TEST(Planner, EmptyChainIsZero) {
  EXPECT_TRUE(planned_chain(std::vector<Arr>{}).empty());
}

TEST(Planner, SingleFactorChainIsIdentity) {
  const auto a = block(0, 14);
  EXPECT_EQ(planned_chain(std::vector<Arr>{a}), a);
}

TEST(Planner, MaskedMtimesMatchesFilterAfterProduct) {
  const auto a = block(0, 20);
  const auto b = block(0, 21);
  const auto mask = block(0, 22).zero_norm();
  PlanStats stats;
  const auto fused = planned_mtimes_masked(a, b, mask, {}, &stats);
  // Reference: full product, then keep only positions present in the mask.
  const auto full = mtimes(a, b);
  std::vector<Arr::Entry> kept;
  for (const auto& [r, c, v] : full.entries()) {
    if (mask.get(r, c)) kept.emplace_back(r, c, v);
  }
  EXPECT_EQ(fused.entries(), kept);
  EXPECT_EQ(stats.products_evaluated, 1);
  EXPECT_GT(stats.mask_flops_kept + stats.mask_flops_skipped, 0u);
}

TEST(Planner, MaskedMtimesEmptyMaskSkipsProductEntirely) {
  PlanStats stats;
  const auto a = block(0, 23);
  const auto b = block(0, 24);
  const auto r = planned_mtimes_masked(a, b, Arr(), {}, &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.products_evaluated, 0);
  EXPECT_EQ(stats.products_skipped, 1);
  EXPECT_EQ(stats.mask_flops_kept + stats.mask_flops_skipped, 0u);
}

TEST(Planner, MaskedMtimesDisjointMaskKeysSkip) {
  // Mask rows/cols disjoint from the product's key spaces ⇒ nothing can
  // survive; the §V-B pushdown skips the product without computing it.
  PlanStats stats;
  const auto a = block(0, 25);
  const auto b = block(0, 26);
  const auto far_mask = block(9000, 27).zero_norm();
  const auto r = planned_mtimes_masked(a, b, far_mask, {}, &stats);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(stats.products_evaluated, 0);
  EXPECT_EQ(stats.products_skipped, 1);
}

TEST(Planner, MaskedMtimesComplementSenseStillEvaluates) {
  // ¬(empty mask) allows everything: must equal the plain product.
  PlanStats stats;
  const auto a = block(0, 28);
  const auto b = block(0, 29);
  const auto r =
      planned_mtimes_masked(a, b, Arr(), {.complement = true}, &stats);
  EXPECT_EQ(r, mtimes(a, b));
  EXPECT_EQ(stats.products_evaluated, 1);
  EXPECT_EQ(stats.mask_flops_skipped, 0u);
  EXPECT_GT(stats.mask_flops_kept, 0u);
}

TEST(Planner, NullStatsIsSafe) {
  const auto a = block(0, 15);
  EXPECT_NO_THROW(planned_mtimes(a, a));
  EXPECT_NO_THROW(planned_mult(a, a));
}

}  // namespace

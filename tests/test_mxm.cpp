// Unit + property tests for array multiplication C = A ⊕.⊗ B (SpGEMM).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "semiring/all.hpp"
#include "sparse/ewise.hpp"
#include "sparse/io.hpp"
#include "sparse/mxm.hpp"
#include "sparse/transpose.hpp"
#include "util/generators.hpp"
#include "util/metrics.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::sparse;
using S = semiring::PlusTimes<double>;

Matrix<double> random_matrix(Index nr, Index nc, std::size_t m,
                             std::uint64_t seed) {
  std::vector<Triple<double>> t;
  util::Xoshiro256 rng(seed);
  for (std::size_t e = 0; e < m; ++e) {
    t.push_back({static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(nr))),
                 static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(nc))),
                 rng.uniform(1.0, 2.0)});
  }
  return Matrix<double>::from_triples<S>(nr, nc, std::move(t));
}

/// Reference O(n^3)-style triple-loop product for validation.
Matrix<double> reference_mxm(const Matrix<double>& A, const Matrix<double>& B) {
  std::map<std::pair<Index, Index>, double> acc;
  for (const auto& ta : A.to_triples()) {
    for (const auto& tb : B.to_triples()) {
      if (ta.col == tb.row) acc[{ta.row, tb.col}] += ta.val * tb.val;
    }
  }
  std::vector<Triple<double>> t;
  for (const auto& [rc, v] : acc) t.push_back({rc.first, rc.second, v});
  return Matrix<double>::from_canonical_triples(A.nrows(), B.ncols(), t);
}

bool approx_equal(const Matrix<double>& a, const Matrix<double>& b,
                  double tol = 1e-9) {
  const auto ta = a.to_triples();
  const auto tb = b.to_triples();
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols()) return false;
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].row != tb[i].row || ta[i].col != tb[i].col) return false;
    if (std::abs(ta[i].val - tb[i].val) > tol) return false;
  }
  return true;
}

TEST(Mxm, SmallWorkedExample) {
  const auto a = make_matrix<S>(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const auto b = make_matrix<S>(3, 2, {{0, 0, 4.0}, {1, 1, 5.0}, {2, 0, 6.0}});
  const auto c = mxm<S>(a, b);
  EXPECT_EQ(c.get(0, 0), 1.0 * 4.0 + 2.0 * 6.0);
  EXPECT_EQ(c.get(1, 1), 15.0);
  EXPECT_EQ(c.nnz(), 2);
}

TEST(Mxm, InnerDimensionMismatchThrows) {
  const auto a = random_matrix(4, 5, 10, 1);
  const auto b = random_matrix(4, 5, 10, 2);
  EXPECT_THROW(mxm<S>(a, b), std::invalid_argument);
}

TEST(Mxm, IdentityIsMtimesIdentity) {
  const auto a = random_matrix(50, 50, 300, 3);
  const auto eye = Matrix<double>::identity(50, 1.0);
  EXPECT_TRUE(approx_equal(mxm<S>(a, eye), a));
  EXPECT_TRUE(approx_equal(mxm<S>(eye, a), a));
}

TEST(Mxm, ZeroAnnihilates) {
  const auto a = random_matrix(20, 20, 80, 4);
  const Matrix<double> zero(20, 20);
  EXPECT_EQ(mxm<S>(a, zero).nnz(), 0);
  EXPECT_EQ(mxm<S>(zero, a).nnz(), 0);
}

TEST(Mxm, MatchesReferenceImplementation) {
  const auto a = random_matrix(30, 40, 150, 5);
  const auto b = random_matrix(40, 25, 150, 6);
  EXPECT_TRUE(approx_equal(mxm<S>(a, b), reference_mxm(a, b)));
}

TEST(Mxm, GustavsonAndHashAgree) {
  const auto a = random_matrix(60, 60, 500, 7);
  const auto b = random_matrix(60, 60, 500, 8);
  const auto g = mxm_gustavson<S>(a, b);
  const auto h = mxm_hash<S>(a, b);
  EXPECT_TRUE(approx_equal(g, h, 1e-12));
}

TEST(Mxm, AllAccumulatorStrategiesBitIdentical) {
  // Every accumulator folds duplicates with S::add in encounter order, so
  // agreement is exact, not approximate — floats included.
  const auto a = random_matrix(80, 80, 900, 21);
  const auto b = random_matrix(80, 80, 900, 22);
  const auto g = mxm_gustavson<S>(a, b);
  EXPECT_EQ(g, mxm_hash<S>(a, b));
  EXPECT_EQ(g, mxm_sorted<S>(a, b));
  EXPECT_EQ(g, mxm_hash_baseline<S>(a, b));
  EXPECT_EQ(g, mxm<S>(a, b, MxmStrategy::kSorted));
}

TEST(Mxm, GustavsonRefusesHugeAccumulator) {
  const Index huge = Index{1} << 40;
  const auto a = Matrix<double>::from_unique_triples(2, huge, {{0, 5, 1.0}});
  const auto b = Matrix<double>::from_unique_triples(huge, huge,
                                                     {{5, 123, 2.0}});
  EXPECT_THROW(mxm_gustavson<S>(a, b), std::length_error);
  // Auto strategy falls back to hashing and succeeds.
  const auto c = mxm<S>(a, b);
  EXPECT_EQ(c.get(0, 123), 2.0);
}

TEST(Mxm, HypersparseChainKeepsTinyFootprint) {
  const Index huge = Index{1} << 50;
  std::vector<Triple<double>> t;
  for (Index i = 0; i < 50; ++i) {
    t.push_back({i * (huge / 64), (i + 1) * (huge / 64), 1.0});
  }
  const auto a = Matrix<double>::from_unique_triples(huge, huge, t);
  const auto c = mxm<S>(a, a);  // two-hop links
  EXPECT_EQ(c.nnz(), 49);
  EXPECT_LT(c.bytes(), 16384u);
}

TEST(Mxm, MinPlusComputesShortestTwoHops) {
  using MP = semiring::MinPlus<double>;
  // 0 -> 1 (3), 0 -> 2 (1), 1 -> 3 (1), 2 -> 3 (5): best 0->3 is 4 via 1.
  auto a = make_matrix<MP>(4, 4, {{0, 1, 3.0}, {0, 2, 1.0}, {1, 3, 1.0},
                                  {2, 3, 5.0}});
  const auto c = mxm<MP>(a, a);
  EXPECT_EQ(c.get(0, 3), 4.0);
}

TEST(Mxm, MaxMinComputesBottleneckPaths) {
  using MM = semiring::MaxMin<double>;
  // Widest-path over two hops: 0->1 cap 5, 1->2 cap 2 → path cap min(5,2)=2;
  // 0->3 cap 1, 3->2 cap 9 → cap 1. max = 2.
  auto a = make_matrix<MM>(4, 4, {{0, 1, 5.0}, {1, 2, 2.0}, {0, 3, 1.0},
                                  {3, 2, 9.0}});
  const auto c = mxm<MM>(a, a);
  EXPECT_EQ(c.get(0, 2), 2.0);
}

TEST(Mxm, AutoPicksByLaunchSize) {
  // kAuto sizes the accumulator to the launch: the dense scratch only when
  // the estimated flops (nnz(A) × the mean stored B-row length) reach
  // kAutoDenseFlopsPerColumn · ncols(B), the flat hash below that. On both
  // sides of the rule kAuto's bytes equal both forced strategies', and the
  // invariant launch counters show which accumulator actually ran.
  namespace m = util::metrics;
  const Index w = 1024;
  const auto B = random_matrix(256, w, 256 * 8, 7);      // ~8 per row
  const auto small = random_matrix(4, 256, 8, 8);        // est ≈ 64 flops
  const auto large = random_matrix(512, 256, 1024, 9);   // est ≈ 8k flops
  const detail::BaseView<double> bv(B);
  ASSERT_EQ(detail::auto_strategy(small, bv), MxmStrategy::kHash);
  ASSERT_EQ(detail::auto_strategy(large, bv), MxmStrategy::kGustavson);
  if (m::kCompiledIn) m::set_enabled(true);
  auto& reg = m::Registry::instance();
  for (const auto* A : {&small, &large}) {
    const bool dense = A == &large;
    const auto g0 = reg.counter_value("mxm.launches.gustavson");
    const auto h0 = reg.counter_value("mxm.launches.hash");
    const auto c = mxm<S>(*A, B, MxmStrategy::kAuto);
    if (m::kCompiledIn) {
      EXPECT_EQ(reg.counter_value("mxm.launches.gustavson") - g0,
                dense ? 1u : 0u);
      EXPECT_EQ(reg.counter_value("mxm.launches.hash") - h0, dense ? 0u : 1u);
    }
    EXPECT_TRUE(c == mxm<S>(*A, B, MxmStrategy::kGustavson)) << dense;
    EXPECT_TRUE(c == mxm<S>(*A, B, MxmStrategy::kHash)) << dense;
  }
}

TEST(Mxm, UnionIntersectRelationalComposition) {
  using U = semiring::UnionIntersect;
  using semiring::ValueSet;
  // Compose two "relations": C(0,0) = (A(0,0)∩B(0,0)) ∪ (A(0,1)∩B(1,0)).
  const auto a = make_matrix<U>(1, 2, {{0, 0, ValueSet{1, 2}},
                                       {0, 1, ValueSet{3, 4}}});
  const auto b = make_matrix<U>(2, 1, {{0, 0, ValueSet{2, 9}},
                                       {1, 0, ValueSet{4}}});
  const auto c = mxm<U>(a, b);
  EXPECT_EQ(c.get(0, 0), (ValueSet{2, 4}));
}

// Property sweep: (AB)ᵀ = BᵀAᵀ and associativity, across seeds.
class MxmProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MxmProperties, TransposeOfProduct) {
  const auto a = random_matrix(25, 30, 120, GetParam());
  const auto b = random_matrix(30, 20, 120, GetParam() + 50);
  EXPECT_TRUE(approx_equal(transpose(mxm<S>(a, b)),
                           mxm<S>(transpose(b), transpose(a))));
}

TEST_P(MxmProperties, Associativity) {
  const auto a = random_matrix(15, 20, 60, GetParam());
  const auto b = random_matrix(20, 18, 60, GetParam() + 1);
  const auto c = random_matrix(18, 12, 60, GetParam() + 2);
  EXPECT_TRUE(approx_equal(mxm<S>(mxm<S>(a, b), c),
                           mxm<S>(a, mxm<S>(b, c)), 1e-8));
}

TEST_P(MxmProperties, DistributesOverEwiseAdd) {
  const auto a = random_matrix(15, 20, 60, GetParam() + 3);
  const auto b = random_matrix(20, 12, 60, GetParam() + 4);
  const auto c = random_matrix(20, 12, 60, GetParam() + 5);
  const auto lhs = mxm<S>(a, ewise_add<S>(b, c));
  const auto rhs = ewise_add<S>(mxm<S>(a, b), mxm<S>(a, c));
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MxmProperties,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace

// Tests for the block-assembly primitives behind batched serving:
// concat_rows / block_diag / concat_blocks stacking and the split_rows
// scatter, including the hypersparse (DCSR) regime and thread-count
// invariance of the parallel assembly.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "sparse/block_diag.hpp"
#include "sparse/io.hpp"
#include "sparse/mxm.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::sparse;
using hyperspace::testing::ThreadGuard;
using S = semiring::PlusTimes<double>;

Matrix<double> random_matrix(Index nrows, Index ncols, int nnz,
                             std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Triple<double>> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back({static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(nrows))),
                 static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(ncols))),
                 rng.uniform(-1.0, 1.0)});
  }
  return Matrix<double>::from_triples<S>(nrows, ncols, std::move(t));
}

TEST(ConcatRows, StacksEntriesAtRowOffsets) {
  const auto a = make_matrix<S>(2, 3, {{0, 0, 1.0}, {1, 2, 2.0}});
  const auto b = make_matrix<S>(3, 3, {{0, 1, 3.0}, {2, 0, 4.0}});
  const auto c = concat_rows<double>({&a, &b});
  EXPECT_EQ(c.nrows(), 5);
  EXPECT_EQ(c.ncols(), 3);
  EXPECT_EQ(c.nnz(), 4);
  EXPECT_EQ(c.get(0, 0), 1.0);
  EXPECT_EQ(c.get(1, 2), 2.0);
  EXPECT_EQ(c.get(2, 1), 3.0);  // b's row 0 landed at row 2
  EXPECT_EQ(c.get(4, 0), 4.0);
}

TEST(ConcatRows, ColumnMismatchThrows) {
  const auto a = make_matrix<S>(2, 3, {{0, 0, 1.0}});
  const auto b = make_matrix<S>(2, 4, {{0, 0, 1.0}});
  EXPECT_THROW(concat_rows<double>({&a, &b}), std::invalid_argument);
}

TEST(ConcatRows, EmptyAndZeroRowParts) {
  const auto a = make_matrix<S>(0, 3, {});
  const auto b = Matrix<double>(2, 3);  // rows but no entries
  const auto c = make_matrix<S>(1, 3, {{0, 1, 9.0}});
  const auto s = concat_rows<double>({&a, &b, &c});
  EXPECT_EQ(s.nrows(), 3);
  EXPECT_EQ(s.nnz(), 1);
  EXPECT_EQ(s.get(2, 1), 9.0);
}

TEST(ConcatRows, NoParts) {
  const auto c = concat_rows<double>({});
  EXPECT_EQ(c.nrows(), 0);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(BlockDiag, OffsetsRowsAndColumns) {
  const auto a = make_matrix<S>(2, 2, {{0, 1, 1.0}, {1, 0, 2.0}});
  const auto b = make_matrix<S>(1, 3, {{0, 2, 3.0}});
  const auto d = block_diag<double>({&a, &b});
  EXPECT_EQ(d.nrows(), 3);
  EXPECT_EQ(d.ncols(), 5);
  EXPECT_EQ(d.get(0, 1), 1.0);
  EXPECT_EQ(d.get(2, 4), 3.0);  // b's (0,2) shifted by (2,2)
  EXPECT_FALSE(d.get(0, 3).has_value());
}

TEST(BlockDiag, TimesStackedBasesEqualsPerPairProducts) {
  // blkdiag(A_1, A_2) ⊕.⊗ concat_rows(B_1, B_2) = concat_rows(C_1, C_2).
  const auto a1 = random_matrix(5, 8, 20, 1);
  const auto a2 = random_matrix(3, 6, 12, 2);
  const auto b1 = random_matrix(8, 7, 30, 3);
  const auto b2 = random_matrix(6, 7, 25, 4);
  const auto lhs = block_diag<double>({&a1, &a2});
  const auto rhs = concat_rows<double>({&b1, &b2});
  const auto c = mxm<S>(lhs, rhs);
  const std::vector<Index> offsets{0, 5, 8};
  const auto parts = split_rows(c, offsets);
  EXPECT_EQ(parts[0], mxm<S>(a1, b1));
  EXPECT_EQ(parts[1], mxm<S>(a2, b2));
}

TEST(ConcatBlocks, OverlappingRowRangesThrow) {
  const auto a = make_matrix<S>(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(
      concat_blocks<double>(3, 3, {{&a, 0, 0}, {&a, 1, 0}}),
      std::invalid_argument);
  EXPECT_THROW(concat_blocks<double>(3, 3, {{&a, 2, 0}}),
               std::invalid_argument);  // out of range
}

TEST(ConcatBlocks, GapsBetweenBlocksStayEmpty) {
  const auto a = make_matrix<S>(1, 2, {{0, 0, 1.0}});
  const auto c = concat_blocks<double>(8, 4, {{&a, 1, 0}, {&a, 6, 2}});
  EXPECT_EQ(c.nnz(), 2);
  EXPECT_EQ(c.get(1, 0), 1.0);
  EXPECT_EQ(c.get(6, 2), 1.0);
  EXPECT_FALSE(c.get(0, 0).has_value());
}

TEST(ConcatBlocks, HypersparseStackUsesDcsr) {
  const Index huge = Index{1} << 40;
  const auto a = Matrix<double>::from_unique_triples(
      huge, huge, {{Index{1} << 30, 5, 1.0}});
  const auto b = Matrix<double>::from_unique_triples(
      huge, huge, {{7, Index{1} << 35, 2.0}});
  const auto c = concat_blocks<double>(2 * huge, huge,
                                       {{&a, 0, 0}, {&b, huge, 0}});
  EXPECT_EQ(c.format(), Format::kDcsr);
  EXPECT_EQ(c.nnz(), 2);
  EXPECT_EQ(c.get(Index{1} << 30, 5), 1.0);
  EXPECT_EQ(c.get(huge + 7, Index{1} << 35), 2.0);
}

TEST(SplitRows, RoundTripsConcatRows) {
  std::vector<Matrix<double>> parts;
  parts.push_back(random_matrix(4, 6, 15, 10));
  parts.push_back(Matrix<double>(0, 6));      // zero-row part
  parts.push_back(random_matrix(1, 6, 3, 11));
  parts.push_back(Matrix<double>(3, 6));      // empty part
  std::vector<const Matrix<double>*> ptrs;
  std::vector<Index> offsets{0};
  for (const auto& p : parts) {
    ptrs.push_back(&p);
    offsets.push_back(offsets.back() + p.nrows());
  }
  const auto stacked = concat_rows(ptrs);
  const auto back = split_rows(stacked, offsets);
  ASSERT_EQ(back.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(back[i], parts[i]) << "part " << i;
  }
}

TEST(SplitRows, BadOffsetsThrow) {
  const auto m = random_matrix(4, 4, 8, 1);
  EXPECT_THROW(split_rows(m, std::vector<Index>{0, 5}),
               std::invalid_argument);
  EXPECT_THROW(split_rows(m, std::vector<Index>{1, 4}),
               std::invalid_argument);
  EXPECT_THROW(split_rows(m, std::vector<Index>{0, 3, 2, 4}),
               std::invalid_argument);
}

TEST(ConcatBlocks, ThreadCountInvariant) {
  // Assembly writes to positions fixed by the input alone: the stacked
  // matrix must be bit-identical at every thread count.
  std::vector<Matrix<double>> parts;
  for (int i = 0; i < 6; ++i) {
    parts.push_back(random_matrix(64, 48, 400, 20 + i));
  }
  std::vector<const Matrix<double>*> ptrs;
  for (const auto& p : parts) ptrs.push_back(&p);
  Matrix<double> reference;
  {
    ThreadGuard guard(1);
    reference = concat_rows(ptrs);
  }
  for (const int nt : {2, 8}) {
    ThreadGuard guard(nt);
    EXPECT_EQ(concat_rows(ptrs), reference) << "threads=" << nt;
    EXPECT_EQ(reference.to_triples(), concat_rows(ptrs).to_triples());
  }
}

TEST(ConcatBlocks, ManyZeroRowBlocksAtSharedOffsetsSortStably) {
  // Zero-row blocks share their row offset with the following block; with
  // enough blocks to leave std::sort's insertion-sort regime, an
  // offset-only comparator could order an empty block AFTER its
  // equal-offset neighbor and make validation reject a valid batch. The
  // height tie-break must keep this assembling — in any input order.
  const int kPairs = 48;
  std::vector<Matrix<double>> mats;
  std::vector<Block<double>> blocks;
  Index off = 0;
  for (int i = 0; i < kPairs; ++i) {
    mats.push_back(Matrix<double>(0, 4));  // zero-row block
    mats.push_back(make_matrix<S>(1, 4, {{0, i % 4, 1.0 + i}}));
  }
  for (int i = 0; i < kPairs; ++i) {
    blocks.push_back({&mats[static_cast<std::size_t>(2 * i)], off, 0});
    blocks.push_back({&mats[static_cast<std::size_t>(2 * i + 1)], off, 0});
    off += 1;
  }
  // Reversed input order: every empty block now ARRIVES after its
  // equal-offset neighbor.
  std::reverse(blocks.begin(), blocks.end());
  const auto c = concat_blocks<double>(off, 4, blocks);
  EXPECT_EQ(c.nrows(), static_cast<Index>(kPairs));
  EXPECT_EQ(c.nnz(), static_cast<std::size_t>(kPairs));
  for (int i = 0; i < kPairs; ++i) {
    EXPECT_EQ(c.get(i, i % 4), 1.0 + i) << "row=" << i;
  }
  // Genuinely overlapping non-empty blocks must still throw.
  const auto a = make_matrix<S>(2, 4, {{0, 0, 1.0}});
  const auto b = make_matrix<S>(2, 4, {{1, 1, 2.0}});
  EXPECT_THROW(concat_blocks<double>(3, 4, {{&a, 0, 0}, {&b, 1, 0}}),
               std::invalid_argument);
}

}  // namespace

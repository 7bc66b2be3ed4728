#include "core/topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "test_util.h"

namespace csrplus::core {
namespace {

TEST(TopKTest, ReturnsDescendingScores) {
  std::vector<double> scores = {0.1, 0.9, 0.5, 0.7, 0.2};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 3);
  EXPECT_EQ(top[2].node, 2);
  EXPECT_DOUBLE_EQ(top[0].score, 0.9);
}

TEST(TopKTest, KLargerThanInputReturnsAllSorted) {
  std::vector<double> scores = {0.3, 0.1, 0.2};
  auto top = TopK(scores, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 0);
  EXPECT_EQ(top[2].node, 1);
}

TEST(TopKTest, KZeroReturnsEmpty) {
  EXPECT_TRUE(TopK({1.0, 2.0}, 0).empty());
}

TEST(TopKTest, TiesBrokenByLowerNodeId) {
  std::vector<double> scores = {0.5, 0.7, 0.5, 0.5};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 0);
  EXPECT_EQ(top[2].node, 2);
}

TEST(TopKTest, ExcludeListSkipsNodes) {
  std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  auto top = TopK(scores, 2, /*exclude=*/{0, 2});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 3);
}

TEST(TopKTest, NegativeScoresHandled) {
  std::vector<double> scores = {-3.0, -1.0, -2.0};
  auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 2);
}

TEST(TopKTest, MatchesFullSortOnLargeInput) {
  csrplus::Rng rng(99);
  std::vector<double> scores(5000);
  for (double& s : scores) s = rng.Uniform();
  auto top = TopK(scores, 25);
  std::vector<double> sorted = scores;
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_EQ(top.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(top[i].score, sorted[i]);
  }
}

TEST(TopKOfColumnTest, SelectsColumn) {
  linalg::DenseMatrix m{{0.1, 0.9}, {0.8, 0.2}, {0.3, 0.7}};
  auto top = TopKOfColumn(m, 1, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 0);
  EXPECT_EQ(top[1].node, 2);
}

TEST(TopKOfColumnTest, ExcludeAppliesToColumn) {
  linalg::DenseMatrix m{{0.9}, {0.8}, {0.7}};
  auto top = TopKOfColumn(m, 0, 2, {0});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(TopKTest, NanRanksBelowEveryNumberWithNodeIdTieBreak) {
  std::vector<double> scores = {kNan, 0.5, -1e300, kNan, 0.5, -INFINITY};
  auto top = TopK(scores, 6);
  ASSERT_EQ(top.size(), 6u);
  const std::vector<Index> order = {1, 4, 2, 5, 0, 3};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(top[i].node, order[i]) << "rank " << i;
  }
  EXPECT_TRUE(std::isnan(top[4].score));
  EXPECT_TRUE(std::isnan(top[5].score));
  // A NaN never displaces a number from a full selection.
  auto top2 = TopK(scores, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].node, 1);
  EXPECT_EQ(top2[1].node, 4);
}

TEST(TopKSelectorTest, ShardMergeEqualsOnePassOnNanAndTies) {
  // Any split of the input, merged in any order, selects the same list —
  // also with NaNs and exact ties, where only the total order decides.
  csrplus::Rng rng(7);
  std::vector<double> scores(997);
  for (double& s : scores) {
    const uint64_t kind = rng.Below(4);
    s = kind == 0 ? kNan : kind == 1 ? 0.25 : rng.Uniform();
  }
  // k = 500 ends inside the plateau of tied 0.25 scores.
  for (const Index k :
       {Index{1}, Index{7}, Index{300}, Index{500}, Index{997}}) {
    const std::vector<ScoredNode> serial = TopK(scores, k);
    for (const int shards : {2, 3, 8}) {
      std::vector<TopKSelector> parts(static_cast<std::size_t>(shards),
                                      TopKSelector(k));
      for (int s = 0; s < shards; ++s) {
        const std::size_t begin = scores.size() * s / shards;
        const std::size_t end = scores.size() * (s + 1) / shards;
        for (std::size_t i = begin; i < end; ++i) {
          parts[static_cast<std::size_t>(s)].Offer(static_cast<Index>(i),
                                                   scores[i]);
        }
      }
      // Merge back to front, to show the merge order does not matter.
      for (int s = shards - 2; s >= 0; --s) {
        parts.back().Merge(parts[static_cast<std::size_t>(s)]);
      }
      EXPECT_TRUE(csrplus::testing::SameTopK(parts.back().Take(), serial))
          << "k=" << k << " shards=" << shards;
    }
  }
}

TEST(TopKOfColumnsTest, OnePassEqualsPerColumnSelection) {
  csrplus::Rng rng(3);
  linalg::DenseMatrix m(50, 4);
  for (Index i = 0; i < 50; ++i) {
    for (Index j = 0; j < 4; ++j) {
      m(i, j) = rng.Below(5) == 0 ? kNan : rng.Uniform();
    }
  }
  const std::vector<Index> skip = {0, 17, 49, 17};
  for (const Index k : {Index{0}, Index{1}, Index{5}, Index{49}, Index{50},
                        Index{80}}) {
    const TopKLists plain = TopKOfColumns(m, k);
    const TopKLists skipped = TopKOfColumns(m, k, skip);
    ASSERT_EQ(plain.size(), 4u);
    ASSERT_EQ(skipped.size(), 4u);
    for (Index j = 0; j < 4; ++j) {
      const auto c = static_cast<std::size_t>(j);
      EXPECT_TRUE(csrplus::testing::SameTopK(plain[c], TopKOfColumn(m, j, k)));
      EXPECT_TRUE(csrplus::testing::SameTopK(
          skipped[c], TopKOfColumn(m, j, k, {skip[c]})));
    }
  }
}

TEST(TopKTest, TrimAfterWideSelectionEqualsExcludingSelection) {
  std::vector<double> scores = {0.9, 0.8, 0.8, 0.1, 0.7};
  const std::vector<Index> exclude = {1, 0};
  const auto wide = TopK(scores, SelectionWidth(2, exclude.size(), 5));
  EXPECT_EQ(TrimTopK(wide, 2, exclude), TopK(scores, 2, exclude));
  EXPECT_TRUE(TrimTopK(wide, 0).empty());
  // Huge k never overflows the width.
  EXPECT_EQ(SelectionWidth(std::numeric_limits<Index>::max(), 1, 5), 5);
  EXPECT_EQ(SelectionWidth(3, 1, 5), 4);
  EXPECT_EQ(SelectionWidth(0, 1, 5), 0);
}

}  // namespace
}  // namespace csrplus::core

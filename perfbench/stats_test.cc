#include "stats.h"

#include <gtest/gtest.h>

namespace s2::perfbench {
namespace {

TEST(PerfbenchStats, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(PerfbenchStats, PercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ASSERT_TRUE(Percentile(hundred, 90).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(hundred, 90), 90);
  EXPECT_DOUBLE_EQ(*Percentile(hundred, 50), 50);

  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  EXPECT_FALSE(Percentile(ninety_nine, 90).has_value());
  // p99 needs at least 1000 samples.
  EXPECT_FALSE(Percentile(hundred, 99).has_value());
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_DOUBLE_EQ(*Percentile(thousand, 99), 990);
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(PerfbenchStats, LowestPartMedianTakesTheFastestCompletePart) {
  // Parts of 3: {5, 6, 7}, {1, 9, 2}, {4, 4, 8}; the trailing {0} is dropped.
  std::vector<double> samples = {5, 6, 7, 1, 9, 2, 4, 4, 8, 0};
  EXPECT_EQ(PartMedians(samples, 3), (std::vector<double>{6, 2, 4}));
  EXPECT_DOUBLE_EQ(LowestPartMedian(samples, 3), 2);
  // No complete part: the whole window's median.
  EXPECT_DOUBLE_EQ(LowestPartMedian({3, 1, 2}, 4), 2);
  EXPECT_TRUE(PartMedians(samples, 0).empty());
}

TEST(PerfbenchStats, OpCountAccounting) {
  OpCount ops;
  EXPECT_FALSE(ops.correct());  // nothing attempted
  ops.Record(true);
  ops.Record(true);
  EXPECT_TRUE(ops.correct());
  ops.Record(false);
  EXPECT_EQ(ops.attempted, 3u);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_FALSE(ops.correct());
}

TEST(PerfbenchStats, SkewedStreamIsSeeded) {
  std::vector<uint32_t> a = SkewedStream(7, 500, 40, 1.1);
  std::vector<uint32_t> b = SkewedStream(7, 500, 40, 1.1);
  std::vector<uint32_t> c = SkewedStream(8, 500, 40, 1.1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 500u);
  for (uint32_t v : a) EXPECT_LT(v, 40u);
  EXPECT_TRUE(SkewedStream(7, 10, 0, 1.0).empty());
}

TEST(PerfbenchStats, StratifiedRankingTakesTheGroupsInTurn) {
  std::vector<std::vector<uint32_t>> groups = {{0, 1, 2}, {3, 4, 5}, {6, 7}};
  std::vector<uint32_t> a = StratifiedRanking(7, groups);
  EXPECT_EQ(a, StratifiedRanking(7, groups));
  EXPECT_NE(a, StratifiedRanking(8, groups));
  ASSERT_EQ(a.size(), 8u);
  // Ranks 0-2 and 3-5 each hold one member of every group; the short
  // group drops out after that.
  for (size_t rank = 0; rank < 6; ++rank) {
    EXPECT_EQ(a[rank] / 3, rank % 3) << "rank " << rank;
  }
  EXPECT_EQ(a[6] / 3, 0u);
  EXPECT_EQ(a[7] / 3, 1u);
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(PerfbenchStats, SkewConcentratesDraws) {
  auto top_share = [](const std::vector<uint32_t>& stream) {
    std::vector<size_t> hist(40, 0);
    for (uint32_t v : stream) ++hist[v];
    return double(*std::max_element(hist.begin(), hist.end())) /
           double(stream.size());
  };
  EXPECT_GT(top_share(SkewedStream(3, 4000, 40, 1.5)),
            2 * top_share(SkewedStream(3, 4000, 40, 0.0)));
}

}  // namespace
}  // namespace s2::perfbench

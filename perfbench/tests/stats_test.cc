// Copyright 2026 The rvar Authors.
//
// Pins the benchmark's arithmetic (src/stats.h): nearest-rank quantiles,
// misses counted as infinitely late, the highest percentile a sample
// supports, the backlog-growth test and the ladder rule.

#include "stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(QuantileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Quantile(&v, 0.5), 50.0);
  EXPECT_EQ(Quantile(&v, 0.99), 99.0);
  EXPECT_EQ(Quantile(&v, 1.0), 100.0);
  EXPECT_EQ(Quantile(&v, 0.0), 1.0);  // rank clamps to the first sample
  std::vector<double> one = {7.0};
  EXPECT_EQ(Quantile(&one, 0.99), 7.0);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(Quantile(&none, 0.5)));
}

TEST(QuantileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(QuantileTest, BetterHalfMedianKeepsTheFasterHalf) {
  // Times: the faster three of five are 1, 2, 3.
  EXPECT_EQ(BetterHalfMedian({9.0, 1.0, 3.0, 2.0, 8.0}, false), 2.0);
  // Rates: the higher three of five are 9, 8, 3.
  EXPECT_EQ(BetterHalfMedian({9.0, 1.0, 3.0, 2.0, 8.0}, true), 8.0);
  // Two repetitions keep the better one; one keeps itself.
  EXPECT_EQ(BetterHalfMedian({4.0, 6.0}, false), 4.0);
  EXPECT_EQ(BetterHalfMedian({4.0, 6.0}, true), 6.0);
  EXPECT_EQ(BetterHalfMedian({5.0}, true), 5.0);
  EXPECT_TRUE(std::isnan(BetterHalfMedian({}, true)));
}

TEST(QuantileTest, MissesCountAsInfinitelyLate) {
  std::vector<double> served;
  for (int i = 1; i <= 990; ++i) served.push_back(i);
  // 10 misses out of 1000: p99 is still the 990th served sample...
  EXPECT_EQ(QuantileWithMisses(served, 10, 0.99), 990.0);
  // ...but one more miss pushes the p99 rank into the misses.
  EXPECT_TRUE(std::isinf(QuantileWithMisses(served, 11, 0.99)));
  EXPECT_EQ(QuantileWithMisses(served, 11, 0.5), 501.0);
  EXPECT_TRUE(std::isinf(QuantileWithMisses({}, 3, 0.5)));
  EXPECT_TRUE(std::isnan(QuantileWithMisses({}, 0, 0.5)));
}

TEST(QuantileTest, HighestSupportedQuantileLeavesTenBeyond) {
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(100000), 0.9999);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(11), 1.0 / 11.0);
  EXPECT_EQ(HighestSupportedQuantile(10), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(0), 0.0);
  // Exactly ten samples lie above the supported quantile's rank.
  const size_t n = 2500;
  const double q = HighestSupportedQuantile(n);
  const size_t rank = static_cast<size_t>(std::ceil(q * n));
  EXPECT_EQ(n - rank, 10u);
}

TEST(BacklogTest, FlatOrNoisyQueueDoesNotGrow) {
  EXPECT_FALSE(BacklogGrows({}, 8.0));
  EXPECT_FALSE(BacklogGrows({0, 100}, 8.0));  // too few samples
  EXPECT_FALSE(BacklogGrows({5, 9, 3, 7, 4, 8, 6, 5, 9}, 8.0));
  // Draining is never growth.
  EXPECT_FALSE(BacklogGrows({90, 80, 70, 30, 20, 10}, 8.0));
}

TEST(BacklogTest, RisingQueueGrows) {
  std::vector<double> rising;
  for (int i = 0; i < 30; ++i) rising.push_back(4.0 * i);
  EXPECT_TRUE(BacklogGrows(rising, 8.0));
  // Slack decides: last-third mean minus first-third mean is 80 here.
  EXPECT_FALSE(BacklogGrows(rising, 80.0));
  EXPECT_TRUE(BacklogGrows(rising, 79.9));
}

TEST(WindowTest, QuietestWindowsKeepsTheLeastLateGenerator) {
  const std::vector<double> lag = {900, 100, 100, 5000, 50, 300};
  EXPECT_EQ(QuietestWindows(lag, 3), (std::vector<size_t>{1, 2, 4}));
  EXPECT_EQ(QuietestWindows(lag, 1), (std::vector<size_t>{4}));
  EXPECT_EQ(QuietestWindows(lag, 10).size(), lag.size());
  EXPECT_TRUE(QuietestWindows({}, 2).empty());
}

TEST(LadderTest, StopsAtTwoConsecutiveFailingSteps) {
  const StepLimits limits{.p99_us = 1000.0, .max_fail_ratio = 0.01};
  std::vector<RateStep> steps = {
      {.rate = 1000, .p99_us = 300, .fail_ratio = 0.0},
      {.rate = 2000, .p99_us = 400, .fail_ratio = 0.0},
      {.rate = 3000, .p99_us = 2000, .fail_ratio = 0.0},  // one hiccup
      {.rate = 4000, .p99_us = 500, .fail_ratio = 0.0},
      {.rate = 5000, .p99_us = 900, .fail_ratio = 0.02},  // too many shed
      {.rate = 6000, .p99_us = 3000, .fail_ratio = 0.0},  // too slow
      {.rate = 7000, .p99_us = 500, .fail_ratio = 0.0},   // after the end
  };
  EXPECT_FALSE(LadderDone({steps.begin(), steps.begin() + 3}, limits));
  EXPECT_FALSE(LadderDone({steps.begin(), steps.begin() + 5}, limits));
  EXPECT_TRUE(LadderDone({steps.begin(), steps.begin() + 6}, limits));
  EXPECT_EQ(MaxSustainedRate(steps, limits), 4000.0);
  // A ladder cut short by its time budget keeps its best passing step.
  EXPECT_EQ(MaxSustainedRate({steps.begin(), steps.begin() + 3}, limits),
            2000.0);
}

TEST(LadderTest, EachLimitFailsAStep) {
  const StepLimits limits{.p99_us = 1000.0, .max_fail_ratio = 0.01};
  const RateStep good{.rate = 500, .p99_us = 100, .fail_ratio = 0.0};
  EXPECT_TRUE(StepPasses(good, limits));
  RateStep shed = good;
  shed.fail_ratio = 0.02;
  EXPECT_FALSE(StepPasses(shed, limits));
  RateStep growing = good;
  growing.backlog_grew = true;
  EXPECT_FALSE(StepPasses(growing, limits));
  RateStep late_generator = good;
  late_generator.valid = false;
  EXPECT_FALSE(StepPasses(late_generator, limits));
  RateStep missed = good;
  missed.p99_us = INFINITY;
  EXPECT_FALSE(StepPasses(missed, limits));
  // Limits are inclusive.
  RateStep edge{.rate = 500, .p99_us = 1000.0, .fail_ratio = 0.01};
  EXPECT_TRUE(StepPasses(edge, limits));
  EXPECT_EQ(MaxSustainedRate({shed, growing, good}, limits), 0.0);
  EXPECT_EQ(MaxSustainedRate({shed, good}, limits), 500.0);
  EXPECT_EQ(MaxSustainedRate({}, limits), 0.0);
}

}  // namespace
}  // namespace perfbench

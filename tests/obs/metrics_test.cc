// Unit tests for the obs metrics primitives: counters, gauges, histogram
// bucket boundaries and quantile extraction, and registry key semantics.

#include "obs/metrics.h"

#include <cmath>
#include <thread>

#include "gtest/gtest.h"

namespace rvar {
namespace obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Registry registry;
  Counter* c = registry.GetCounter("c_total");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42);
}

TEST(Gauge, SetAndAdd) {
  Registry registry;
  Gauge* g = registry.GetGauge("g");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.0);
}

TEST(Registry, SameKeySameHandle) {
  Registry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
  // A label makes a distinct series under the same family name.
  Counter* plain = registry.GetCounter("fam");
  Counter* labeled = registry.GetCounter("fam", "reason", "x");
  EXPECT_NE(plain, labeled);
  EXPECT_EQ(labeled, registry.GetCounter("fam", "reason", "x"));
  EXPECT_NE(labeled, registry.GetCounter("fam", "reason", "y"));
}

TEST(Histogram, BucketBoundariesAreLogSpaced) {
  Registry registry;
  // One bucket per decade over [1e-3, 1e3]: bounds 1e-2 ... 1e3.
  Histogram* h =
      registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6});
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(h->BucketUpperBound(i), std::pow(10.0, -2 + i),
                1e-9 * h->BucketUpperBound(i));
  }
}

TEST(Histogram, ObservationsLandInTheRightBuckets) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6});
  h->Observe(5e-3);   // bucket 0: (1e-3, 1e-2]
  h->Observe(0.5);    // bucket 2: (0.1, 1]
  h->Observe(0.2);    // bucket 2
  h->Observe(700.0);  // bucket 5: (100, 1000]
  const std::vector<int64_t> counts = h->BucketCounts();
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 0, 2, 0, 0, 1}));
  EXPECT_EQ(h->Count(), 4);
  EXPECT_NEAR(h->Sum(), 5e-3 + 0.5 + 0.2 + 700.0, 1e-12);
}

TEST(Histogram, OutOfRangeClipsIntoEdgeBuckets) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6});
  h->Observe(1e-9);    // below range -> first bucket
  h->Observe(0.0);     // log10 -> -inf -> first bucket
  h->Observe(-1.0);    // log10 -> NaN -> first bucket (counted, not UB)
  h->Observe(1e9);     // above range -> last bucket
  const std::vector<int64_t> counts = h->BucketCounts();
  EXPECT_EQ(counts.front(), 3);
  EXPECT_EQ(counts.back(), 1);
  EXPECT_EQ(h->Count(), 4);
}

TEST(Histogram, QuantileInterpolatesWithinOccupiedBucket) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6});
  // All mass in bucket 2 = (0.1, 1]; every quantile must stay inside it.
  for (int i = 0; i < 100; ++i) h->Observe(0.5);
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    const double v = h->Quantile(q);
    EXPECT_GE(v, 0.1) << "q=" << q;
    EXPECT_LE(v, 1.0 + 1e-9) << "q=" << q;
  }
  // Mass splits over two buckets: the median sits at their boundary.
  Histogram* h2 =
      registry.GetHistogram("lat2", HistogramOptions{1e-3, 1e3, 6});
  for (int i = 0; i < 50; ++i) h2->Observe(0.5);    // bucket 2
  for (int i = 0; i < 50; ++i) h2->Observe(50.0);   // bucket 4
  EXPECT_NEAR(h2->Quantile(0.5), 1.0, 1e-6);
  EXPECT_GT(h2->Quantile(0.9), 10.0);
  EXPECT_LT(h2->Quantile(0.1), 1.0);
}

TEST(Histogram, EmptyQuantileIsMinValue) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 1e-3);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.GetCounter("b_total")->Increment(2);
  registry.GetCounter("a_total")->Increment(1);
  registry.GetGauge("util")->Set(0.25);
  registry.GetHistogram("lat", HistogramOptions{1e-3, 1e3, 6})->Observe(0.5);
  const Registry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].key, "a_total");
  EXPECT_EQ(snap.counters[0].value, 1);
  EXPECT_EQ(snap.counters[1].key, "b_total");
  EXPECT_EQ(snap.counters[1].value, 2);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_EQ(snap.histograms[0].counts.size(), 6u);
  EXPECT_EQ(snap.histograms[0].upper_bounds.size(), 6u);
}

TEST(Registry, ResetForTestZeroesEverything) {
  Registry registry;
  Counter* c = registry.GetCounter("c_total");
  Histogram* h = registry.GetHistogram("lat");
  c->Increment(7);
  h->Observe(0.1);
  registry.ResetForTest();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.0);
  for (int64_t n : h->BucketCounts()) EXPECT_EQ(n, 0);
}

TEST(Sampling, TimerSkipsWhenOff) {
  Registry registry;
  Histogram* h = registry.GetHistogram("lat");
  SetSampling(false);
  { ScopedLatencyTimer timer(h); }
  EXPECT_EQ(h->Count(), 0);
  SetSampling(true);
  { ScopedLatencyTimer timer(h); }
  EXPECT_EQ(h->Count(), 1);
}

// Runs `calls` sampled timers on a fresh thread, so the per-thread tick
// starts at 0, and returns how many calls the histogram recorded.
int64_t TimedCallsOnFreshThread(uint32_t period, int calls) {
  Registry registry;
  Histogram* h = registry.GetHistogram("lat");
  std::thread([h, period, calls] {
    for (int i = 0; i < calls; ++i) {
      ScopedLatencyTimer timer(h, period);
    }
  }).join();
  return h->Count();
}

TEST(Sampling, SampledTimerTimesOneCallPerPeriod) {
  EXPECT_EQ(TimedCallsOnFreshThread(16, 160), 10);
}

TEST(Sampling, SampledTimerWithPeriodOneTimesEveryCall) {
  EXPECT_EQ(TimedCallsOnFreshThread(1, 160), 160);
}

TEST(Sampling, SampledTimerSkipsWhenOff) {
  SetSampling(false);
  const int64_t timed = TimedCallsOnFreshThread(16, 160);
  SetSampling(true);
  EXPECT_EQ(timed, 0);
}

}  // namespace
}  // namespace obs
}  // namespace rvar

// Concurrency tests for the obs primitives: N threads hammering the same
// counter/histogram/tracer must lose no updates and exhibit no data races.
// Runs in the `concurrency`-labeled binary so the TSan preset
// (-DRVAR_SANITIZE=thread) exercises it via `ctest -L concurrency`.

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rvar {
namespace obs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20000;

TEST(ObsConcurrency, CounterLosesNoIncrements) {
  Registry registry;
  Counter* counter = registry.GetCounter("c_total");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kOpsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
}

TEST(ObsConcurrency, RegistrationRacesYieldOneSeriesPerKey) {
  Registry registry;
  std::atomic<Counter*> seen[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.GetCounter("raced_total", "thread", "any");
      seen[t].store(c);
      c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  Counter* first = seen[0].load();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t].load(), first);
  EXPECT_EQ(first->Value(), kThreads);
}

TEST(ObsConcurrency, HistogramObservationsAllLand) {
  Registry registry;
  Histogram* h = registry.GetHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        h->Observe(1e-4 * (1 + t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->Count(), static_cast<int64_t>(kThreads) * kOpsPerThread);
  int64_t bucket_total = 0;
  for (int64_t n : h->BucketCounts()) bucket_total += n;
  EXPECT_EQ(bucket_total, h->Count());
  // Sum accumulates via CAS; every observation's value must be in it.
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += kOpsPerThread * 1e-4 * (1 + t);
  }
  EXPECT_NEAR(h->Sum(), expected_sum, 1e-6 * expected_sum);
}

// Each thread's tick is its own: 8 fresh threads at period 16 time
// exactly one call in 16 each, and the buckets still sum to the count.
TEST(ObsConcurrency, SampledTimerTimesOneCallPerPeriodPerThread) {
  constexpr int kCallsPerThread = 1600;
  constexpr int kPeriod = 16;
  Registry registry;
  Histogram* h = registry.GetHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        ScopedLatencyTimer timer(h, kPeriod);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->Count(), kThreads * kCallsPerThread / kPeriod);
  int64_t bucket_total = 0;
  for (int64_t n : h->BucketCounts()) bucket_total += n;
  EXPECT_EQ(bucket_total, h->Count());
}

TEST(ObsConcurrency, TracerRingUnderContention) {
  Tracer tracer(/*capacity=*/64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 500; ++i) {
        ScopedSpan outer("outer", &tracer);
        ScopedSpan inner("inner", &tracer);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.TotalRecorded(), kThreads * 500 * 2);
  const auto spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), 64u);
  EXPECT_EQ(tracer.Dropped(), kThreads * 500 * 2 - 64);
}

TEST(ObsConcurrency, SnapshotWhileWriting) {
  Registry registry;
  Counter* counter = registry.GetCounter("c_total");
  Histogram* h = registry.GetHistogram("lat");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      counter->Increment();
      h->Observe(0.01);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const Registry::Snapshot snap = registry.Snap();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_GE(snap.counters[0].value, 0);
    // New series may register concurrently elsewhere in real code; here
    // the set is fixed, only values move.
    ASSERT_EQ(snap.histograms.size(), 1u);
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(counter->Value(), h->Count());
}

}  // namespace
}  // namespace obs
}  // namespace rvar

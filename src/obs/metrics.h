// Copyright 2026 The rvar Authors.
//
// Lock-cheap metrics for the serving stack (DESIGN.md §9): monotonic
// counters, gauges, and fixed-bucket latency histograms, held in a
// process-wide Registry. Handles returned by the registry are stable for
// its lifetime and updated with relaxed atomics, so the hot paths
// (ShapeService::Observe, WAL appends, telemetry ingestion) pay one atomic
// add per event and never take a lock after registration. Latency timers
// on sub-microsecond paths read the clock on one call in a fixed period.
//
// Instrumentation is deterministic-safe by construction: metric values are
// write-only from the instrumented code's point of view — nothing in the
// library reads a metric to make a decision, so enabling or disabling
// observability cannot change any computed result (guarded by
// tests/obs/instrumentation_guard_test.cc).

#ifndef RVAR_OBS_METRICS_H_
#define RVAR_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.h"

namespace rvar {
namespace obs {

/// Global switch for the *timing* side of observability (ScopedLatencyTimer
/// and trace spans). When off they skip the clock reads and record nothing,
/// costing one relaxed atomic load. Counter/gauge updates stay live either
/// way — a relaxed add is already near-zero cost.
void SetSampling(bool enabled);
bool SamplingEnabled();

/// \brief A monotonically increasing counter.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// \brief A settable instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram with log-spaced buckets.
///
/// Buckets are uniform in log10 space over [min_value, max_value]; values
/// outside the range are clipped into the first/last bucket (stats::BinGrid
/// semantics). Quantile extraction reuses the stats code's PmfQuantile over
/// the log grid, so one interpolation routine serves both the paper's
/// runtime PMFs and the serving latency distributions.
struct HistogramOptions {
  double min_value = 1e-7;  ///< seconds; first bucket's upper range start
  double max_value = 1e3;
  int num_buckets = 50;  ///< 5 per decade over the default range
};

class Histogram {
 public:
  void Observe(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const BinGrid& log_grid() const { return grid_; }

  /// Upper bound of bucket `i` in value (not log) space; the last bucket
  /// additionally absorbs everything above max_value (+Inf in exports).
  double BucketUpperBound(int i) const;

  /// Quantile q of the observed distribution (PmfQuantile over the log
  /// grid, exponentiated back to value space). min_value when empty.
  double Quantile(double q) const;

  /// Relaxed-atomic snapshot of the bucket counts.
  std::vector<int64_t> BucketCounts() const;

 private:
  friend class Registry;
  explicit Histogram(const HistogramOptions& options);

  HistogramOptions options_;
  BinGrid grid_;  ///< over [log10(min_value), log10(max_value)]
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief RAII wall-clock timer recording seconds into a Histogram.
/// Inactive (no clock reads) when sampling is off or `h` is null.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* h)
      : histogram_(h), active_(h != nullptr && SamplingEnabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  /// Sampled form for sub-microsecond paths, where the two clock reads
  /// would cost more than the work they time: every call advances one
  /// per-thread tick, and only calls whose tick is a multiple of `period`
  /// (a power of two) time themselves. The histogram's count is then the
  /// number of timed calls, not the number of calls; which calls those are
  /// depends only on the calling thread's own call sequence.
  ScopedLatencyTimer(Histogram* h, uint32_t period)
      : histogram_(h),
        active_((NextTick() & (period - 1)) == 0 && h != nullptr &&
                SamplingEnabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatencyTimer() {
    if (active_) {
      histogram_->Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  static uint32_t NextTick() {
    thread_local uint32_t tick = 0;
    return tick++;
  }

  Histogram* histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Owns every metric of one process (or one test).
///
/// Metrics are keyed by name plus an optional single label pair; the full
/// key renders in Prometheus form (`name{key="value"}`). Re-registering an
/// existing key returns the same handle, so call sites can cache pointers
/// in function-local statics. All lookups lock; all updates through the
/// returned handles are lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry the library's instrumentation reports to.
  static Registry& Default();

  Counter* GetCounter(std::string_view name);
  Counter* GetCounter(std::string_view name, std::string_view label_key,
                      std::string_view label_value);
  Gauge* GetGauge(std::string_view name);
  Gauge* GetGauge(std::string_view name, std::string_view label_key,
                  std::string_view label_value);
  Histogram* GetHistogram(std::string_view name,
                          const HistogramOptions& options = {});
  Histogram* GetHistogram(std::string_view name, std::string_view label_key,
                          std::string_view label_value,
                          const HistogramOptions& options = {});

  /// \brief Point-in-time copy of every registered metric, keys ascending.
  struct CounterValue {
    std::string key;   ///< full key, e.g. `a_total{reason="duplicate"}`
    std::string name;  ///< base name, e.g. `a_total`
    int64_t value = 0;
  };
  struct GaugeValue {
    std::string key;
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string key;
    std::string name;
    std::string label;  ///< `key="value"` or empty; exporters splice `le`
    std::vector<double> upper_bounds;  ///< per bucket, value space
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  struct Snapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
  };
  Snapshot Snap() const;

  /// Zeroes every registered metric (handles stay valid). Test-only: live
  /// concurrent writers may interleave with the reset.
  void ResetForTest();

 private:
  struct HistogramEntry {
    std::string name;
    std::string label;
    std::unique_ptr<Histogram> histogram;
  };

  template <typename T>
  T* GetIn(std::map<std::string, std::pair<std::string, std::unique_ptr<T>>>*
               metrics,
           std::string_view name, std::string_view label_key,
           std::string_view label_value);

  mutable std::mutex mu_;
  /// key -> (base name, metric); std::map for deterministic export order.
  std::map<std::string, std::pair<std::string, std::unique_ptr<Counter>>>
      counters_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Gauge>>>
      gauges_;
  std::map<std::string, HistogramEntry> histograms_;
};

}  // namespace obs
}  // namespace rvar

#endif  // RVAR_OBS_METRICS_H_

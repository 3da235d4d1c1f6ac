// Copyright 2026 The rvar Authors.
//
// The benchmark's own arithmetic: quantiles over latency samples in which
// failed or shed requests count as misses, the highest percentile a
// sample supports, the backlog-growth test of one open-loop rate step,
// and the ladder rule that turns rate steps into one maximum rate.
// Header-only and free of library dependencies so
// tests/stats_test.cc can pin every rule.

#ifndef RVAR_PERFBENCH_STATS_H_
#define RVAR_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (sorted in place): the smallest value
/// with at least ceil(q * n) samples at or below it. q = 0.5 of an even
/// count is the lower middle sample. NaN when `values` is empty.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

/// Median as the mean of the two middle samples (so two repetitions of a
/// batch job report their average). NaN when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median of the better half of repeated measurements of one quantity
/// (the faster times, or the higher rates): ceil(n/2) samples are kept. A
/// shared host only ever slows a repetition down, and its slow spells
/// last seconds, so the better half of a run's repetitions moves far less
/// from run to run than all of them do. NaN when empty.
inline double BetterHalfMedian(std::vector<double> values,
                               bool higher_is_better) {
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<double>());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize((values.size() + 1) / 2);
  return Median(std::move(values));
}

/// Quantile over `served` latencies plus `misses` requests that failed or
/// were shed, which count as infinitely late: +inf when the rank falls
/// among the misses. NaN when there are no samples at all.
inline double QuantileWithMisses(std::vector<double> served, size_t misses,
                                 double q) {
  const size_t n = served.size() + misses;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (rank > served.size()) return std::numeric_limits<double>::infinity();
  std::sort(served.begin(), served.end());
  return served[rank - 1];
}

/// The highest quantile of an n-sample set that still has at least
/// `beyond` samples above it: (n - beyond) / n. Returns 0 when n is too
/// small for any tail quantile (n <= beyond).
inline double HighestSupportedQuantile(size_t n, size_t beyond = 10) {
  if (n <= beyond) return 0.0;
  return static_cast<double>(n - beyond) / static_cast<double>(n);
}

/// True when an open-loop step's queue kept growing: the mean depth over
/// the last third of the step's samples exceeds the mean over the first
/// third by more than `slack` requests. Needs at least three samples;
/// fewer cannot show a trend and count as not growing.
inline bool BacklogGrows(const std::vector<double>& depth_samples,
                         double slack) {
  const size_t n = depth_samples.size();
  if (n < 3) return false;
  const size_t third = n / 3;
  double head = 0.0, tail = 0.0;
  for (size_t i = 0; i < third; ++i) {
    head += depth_samples[i];
    tail += depth_samples[n - third + i];
  }
  return (tail - head) / static_cast<double>(third) > slack;
}

/// Indices of the `keep` windows with the lowest generator lateness
/// (ties go to the earlier window), in ascending index order.
inline std::vector<size_t> QuietestWindows(const std::vector<double>& lag,
                                           size_t keep) {
  std::vector<size_t> order(lag.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return lag[a] < lag[b]; });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

/// Limits an open-loop rate step must meet to count as sustained.
struct StepLimits {
  double p99_us = 0.0;      ///< due-to-response p99 latency limit
  double max_fail_ratio = 0.0;  ///< failed or shed share of requests
};

/// The outcome of one open-loop rate step.
struct RateStep {
  double rate = 0.0;        ///< scheduled requests per second
  double p99_us = 0.0;      ///< due-to-response p99, misses count as +inf
  double fail_ratio = 0.0;  ///< (failed + shed) / attempted
  bool backlog_grew = false;
  /// False when the generator fell behind its schedule by more than the
  /// latency limit: such a step measured the generator, not the server.
  bool valid = true;
};

/// Whether one step meets every limit (and measured the server at all).
inline bool StepPasses(const RateStep& step, const StepLimits& limits) {
  return step.valid && step.p99_us <= limits.p99_us &&
         step.fail_ratio <= limits.max_fail_ratio && !step.backlog_grew;
}

/// Whether the ladder is over: its last two steps both failed. One failing
/// step between passing ones is taken for a host hiccup, not the limit.
inline bool LadderDone(const std::vector<RateStep>& steps,
                       const StepLimits& limits) {
  const size_t n = steps.size();
  return n >= 2 && !StepPasses(steps[n - 1], limits) &&
         !StepPasses(steps[n - 2], limits);
}

/// The ladder's maximum sustained rate: steps run in ascending rate order
/// until two consecutive steps fail, and the answer is the highest passing
/// rate before that. 0 when no step passes.
inline double MaxSustainedRate(const std::vector<RateStep>& steps,
                               const StepLimits& limits) {
  double best = 0.0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i >= 1 && !StepPasses(steps[i], limits) &&
        !StepPasses(steps[i - 1], limits)) {
      break;
    }
    if (StepPasses(steps[i], limits)) best = steps[i].rate;
  }
  return best;
}

}  // namespace perfbench

#endif  // RVAR_PERFBENCH_STATS_H_

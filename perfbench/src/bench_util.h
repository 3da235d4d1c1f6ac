// Copyright 2026 The rvar Authors.
//
// Shared pieces of the benchmark binary: run arguments, the per-run
// outcome (correctness verdict, attempted/failed counts and metric
// values), timing helpers, and the set-up every workload starts from — a
// reduced study suite simulated from the run's seed with the canonical
// predictor configuration trained on it.

#ifndef RVAR_PERFBENCH_BENCH_UTIL_H_
#define RVAR_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "sim/datasets.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span file
};

/// What one workload run produced. `values` holds every end-to-end and
/// per-layer metric the workload measured, keyed by its BENCHMARK.json
/// name; main.cc selects the set the run mode prints.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  /// Records a correctness check; a failed one is printed and makes the
  /// run incorrect.
  void Check(bool ok, const std::string& what);
};

/// Seconds elapsed since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wall-clock seconds of one call.
double TimeSeconds(const std::function<void()>& fn);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Prints one human-readable metric line: `  name = value unit  detail`.
void Report(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");

/// Prints a latency sample's median, p99 and highest supported percentile
/// with the sample count; returns {p50, p99} in the samples' unit.
struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
};
Percentiles ReportLatency(const std::string& name, std::vector<double> samples,
                          const std::string& unit);

/// The canonical study suite: 150 groups, 20+15+5 days of D1/D2/D3, group
/// support 20/3/3, submission periods log-uniform from 15 min to 6 h, seed
/// 20230407. The same values as the repository's bench_common
/// DefaultSuiteConfig, kept here so that the benchmark's own files define
/// its workloads.
rvar::sim::SuiteConfig CanonicalSuiteConfig();

/// The canonical predictor configuration: 8 clusters, min support 20, 16
/// k-means restarts, 50 GBDT rounds, feature fraction 0.7, 31 leaves (the
/// values of bench_common DefaultPredictorConfig).
rvar::core::PredictorConfig CanonicalPredictorConfig(
    rvar::core::Normalization norm);

/// The reduced suite every workload's set-up simulates: the canonical
/// suite's configuration with fewer groups and days, seeded by the run.
rvar::sim::SuiteConfig ReducedSuiteConfig(uint64_t seed);

/// A simulated suite and the canonical predictor trained on it.
struct TrainedSuite {
  rvar::sim::StudySuite suite;
  std::unique_ptr<rvar::core::VariationPredictor> predictor;
};

/// Simulates ReducedSuiteConfig(seed) and trains the canonical predictor
/// configuration (Ratio normalization) on it. Exits on failure.
TrainedSuite TrainReduced(uint64_t seed);

/// Runs `setup` five times and stores the median wall time as `setup_s`;
/// the set-up is deterministic, so every repetition builds the same inputs
/// and the caller keeps the last.
void TimeSetup(const std::function<void()>& setup, Outcome* out);

/// Per-row cost of the two prediction kernels on `runs` (256-row
/// PredictShapeBatchInto batches, and PredictFromFeatures on precomputed
/// features), stored as core.predict_batch_us_per_row and
/// core.predict_from_features_us_per_row.
void MeasurePredictKernels(const rvar::core::VariationPredictor& predictor,
                           const std::vector<rvar::sim::JobRun>& runs,
                           Outcome* out);

/// Times each training stage of `predictor` by calling its public function
/// on the same inputs (GroupMedians::FromTelemetry, ShapeLibrary::Build,
/// LabelGroups, Featurizer::BuildDataset, GbdtClassifier::Fit on the kept
/// columns), plus the 1-thread vs default-thread fit speedup. `train_s` is
/// the measured VariationPredictor::Train time the stages are set
/// against; the remainder is core.train_unattributed_s.
void MeasureTrainStages(const rvar::sim::StudySuite& suite,
                        const rvar::core::VariationPredictor& predictor,
                        double train_s, Outcome* out);

/// Traced runs of serve, ingest and durable: times the set-up's own
/// pipeline once more, stage by stage — BuildStudySuite on the reduced
/// suite (sim.build_suite_s, sim.runs_per_s), Train (core.train_s and the
/// MeasureTrainStages breakdown) and Evaluate on its D3 (core.evaluate_s) —
/// since that is what those workloads' setup_s pays for.
void MeasureSetupStages(uint64_t seed, Outcome* out);

/// The group id of each of the first `count` submissions of `num_groups`
/// recurring job groups, in submission order, under the simulator's
/// recurring-workload model: each group's mean period is drawn
/// log-uniformly over sim::WorkloadConfig's default range (15 min to 6 h,
/// so the busiest group submits 24x as often as the quietest), its jitter
/// from 5-35 % and, for a quarter of the groups, a late start within the
/// first 60 % of the timeline, as sim::WorkloadGenerator::GenerateGroups
/// draws them; sim::WorkloadGenerator::GenerateInstances then expands the
/// groups into the time-ordered schedule. Deterministic in `seed`.
std::vector<int> RecurringGroupStream(int num_groups, size_t count,
                                      uint64_t seed);

/// The library shape of each of `num_groups` groups, drawn in proportion
/// to the number of reference groups the library assigned to each shape.
std::vector<int> DrawGroupShapes(const rvar::core::ShapeLibrary& library,
                                 int num_groups, rvar::Rng* rng);

/// FNV-1a digest of a byte string, printed as 16 hex digits.
std::string Digest(const std::string& bytes);

}  // namespace perfbench

#endif  // RVAR_PERFBENCH_BENCH_UTIL_H_

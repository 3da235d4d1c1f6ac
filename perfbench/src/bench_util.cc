// Copyright 2026 The rvar Authors.

#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/featurizer.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "ml/feature_select.h"
#include "ml/gbdt.h"
#include "sim/workload.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace rvar;

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double TimeSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return SecondsSince(start);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Report(const std::string& name, double value, const std::string& unit,
            const std::string& detail) {
  std::printf("  %-38s = %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : "  ", detail.c_str());
}

Percentiles ReportLatency(const std::string& name, std::vector<double> samples,
                          const std::string& unit) {
  const size_t n = samples.size();
  Percentiles p;
  p.p50 = Quantile(&samples, 0.5);
  p.p99 = Quantile(&samples, 0.99);
  const double q_top = HighestSupportedQuantile(n);
  char detail[160];
  if (q_top > 0.0) {
    std::snprintf(detail, sizeof(detail), "p99=%.6g, p%.6g=%.6g (n=%zu)",
                  p.p99, 100.0 * q_top, Quantile(&samples, q_top), n);
  } else {
    std::snprintf(detail, sizeof(detail),
                  "p99=%.6g (n=%zu: too few samples for a tail percentile)",
                  p.p99, n);
  }
  Report(name + "_p50", p.p50, unit, detail);
  return p;
}

sim::SuiteConfig CanonicalSuiteConfig() {
  sim::SuiteConfig config;
  config.num_groups = 150;
  config.d1_days = 20.0;
  config.d2_days = 15.0;
  config.d3_days = 5.0;
  config.d1_support = 20;
  config.d2_support = 3;
  config.d3_support = 3;
  config.workload.min_period_seconds = 900.0;
  config.workload.max_period_seconds = 6.0 * 3600.0;
  config.seed = 20230407;
  return config;
}

core::PredictorConfig CanonicalPredictorConfig(core::Normalization norm) {
  core::PredictorConfig config;
  config.shape.normalization = norm;
  config.shape.num_clusters = 8;
  config.shape.min_support = 20;
  config.shape.kmeans.num_restarts = 16;
  config.gbdt.num_rounds = 50;
  config.gbdt.feature_fraction = 0.7;
  config.gbdt.max_leaves = 31;
  return config;
}

sim::SuiteConfig ReducedSuiteConfig(uint64_t seed) {
  sim::SuiteConfig config = CanonicalSuiteConfig();
  config.num_groups = 60;
  config.d1_days = 6.0;
  config.d2_days = 3.0;
  config.d3_days = 1.0;
  config.seed = seed;
  return config;
}

TrainedSuite TrainReduced(uint64_t seed) {
  TrainedSuite out;
  {
    Span span("sim.BuildStudySuite");
    auto suite = sim::BuildStudySuite(ReducedSuiteConfig(seed));
    if (!suite.ok()) {
      std::fprintf(stderr, "reduced suite: %s\n",
                   suite.status().ToString().c_str());
      std::exit(1);
    }
    out.suite = std::move(*suite);
  }
  {
    Span span("core.VariationPredictor::Train");
    auto predictor = core::VariationPredictor::Train(
        out.suite, CanonicalPredictorConfig(core::Normalization::kRatio));
    if (!predictor.ok()) {
      std::fprintf(stderr, "reduced train: %s\n",
                   predictor.status().ToString().c_str());
      std::exit(1);
    }
    out.predictor = std::move(*predictor);
  }
  return out;
}

void TimeSetup(const std::function<void()>& setup, Outcome* out) {
  constexpr int reps = 5;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(TimeSeconds(setup));
  out->values["setup_s"] = Median(times);
  char detail[64];
  std::snprintf(detail, sizeof(detail), "(median of n=%d set-ups)",
                reps);
  Report("setup_s", out->values["setup_s"], "s", detail);
}

void MeasurePredictKernels(const core::VariationPredictor& predictor,
                           const std::vector<sim::JobRun>& runs,
                           Outcome* out) {
  constexpr size_t kBatch = 256;
  constexpr int kBatches = 200;
  std::vector<const sim::JobRun*> batch;
  for (size_t i = 0; i < kBatch; ++i) batch.push_back(&runs[i % runs.size()]);
  const auto model = predictor.ModelSnapshot();
  std::vector<int> shapes;
  std::vector<Status> run_status;
  const Status compatible =
      predictor.PredictShapeBatchInto(*model, batch, &shapes, &run_status);
  if (!compatible.ok()) {
    // A model with fewer classes than the library (see serve.cc) is
    // refused before any work; there is no kernel to time.
    std::printf("  NOTE: prediction kernels not measured: %s\n",
                compatible.ToString().c_str());
    return;
  }
  std::vector<double> batch_s;
  for (int b = 0; b < kBatches; ++b) {
    batch_s.push_back(TimeSeconds([&] {
      Span span("core.PredictShapeBatchInto");
      (void)predictor.PredictShapeBatchInto(*model, batch, &shapes,
                                            &run_status);
    }));
  }
  out->values["core.predict_batch_us_per_row"] =
      Median(batch_s) * 1e6 / static_cast<double>(kBatch);

  std::vector<std::vector<double>> features;
  for (const sim::JobRun* run : batch) {
    auto x = predictor.featurizer().FeaturesFor(*run);
    if (x.ok()) features.push_back(std::move(*x));
  }
  out->Check(!features.empty(), "featurizing the prediction kernel batch");
  if (features.empty()) return;
  core::PredictScratch scratch;
  std::vector<double> pass_s;
  for (int b = 0; b < kBatches; ++b) {
    pass_s.push_back(TimeSeconds([&] {
      Span span("core.PredictFromFeatures");
      for (const auto& x : features) {
        (void)predictor.PredictFromFeatures(*model, x, &scratch);
      }
    }));
  }
  out->values["core.predict_from_features_us_per_row"] =
      Median(pass_s) * 1e6 / static_cast<double>(features.size());
  Report("core.predict_batch_us_per_row",
         out->values["core.predict_batch_us_per_row"], "us",
         "(256-row batches, median of 200)");
  Report("core.predict_from_features_us_per_row",
         out->values["core.predict_from_features_us_per_row"], "us",
         "(forest on precomputed features, median of 200 passes)");
}

void MeasureTrainStages(const sim::StudySuite& suite,
                        const core::VariationPredictor& predictor,
                        double train_s, Outcome* out) {
  const core::PredictorConfig& config = predictor.config();
  std::map<std::string, double>& v = out->values;

  core::GroupMedians medians;
  v["core.medians_s"] = TimeSeconds([&] {
    Span span("core.GroupMedians::FromTelemetry");
    medians = core::GroupMedians::FromTelemetry(suite.d1.telemetry);
  });
  v["core.shape_library_s"] = TimeSeconds([&] {
    Span span("core.ShapeLibrary::Build");
    out->Check(core::ShapeLibrary::Build(suite.d1.telemetry, medians,
                                         config.shape)
                   .ok(),
               "ShapeLibrary::Build on the training suite");
  });
  std::unordered_map<int, int> labels;
  v["core.label_groups_s"] = TimeSeconds([&] {
    Span span("core.LabelGroups");
    auto l = predictor.LabelGroups(suite.d2.telemetry,
                                   config.min_label_support);
    out->Check(l.ok(), "LabelGroups on D2");
    if (l.ok()) labels = std::move(*l);
  });
  core::Featurizer featurizer(&suite.groups, &suite.cluster->catalog());
  featurizer.SetHistory(suite.d1.telemetry);
  ml::Dataset train;
  v["core.featurize_s"] = TimeSeconds([&] {
    Span span("core.Featurizer::BuildDataset");
    auto d = featurizer.BuildDataset(suite.d2.telemetry, labels);
    out->Check(d.ok(), "Featurizer::BuildDataset on D2");
    if (d.ok()) train = std::move(*d);
  });
  train = ml::ProjectFeatures(train, predictor.kept_features());
  const auto fit = [&] {
    Span span("ml.GbdtClassifier::Fit");
    ml::GbdtClassifier model(config.gbdt);
    out->Check(model.Fit(train).ok(), "GbdtClassifier::Fit on D2");
  };
  v["ml.gbdt_fit_s"] = TimeSeconds(fit);
  SetParallelThreads(1);
  const double fit_1t_s = TimeSeconds(fit);
  SetParallelThreads(0);
  v["ml.gbdt_fit_speedup"] = fit_1t_s / v["ml.gbdt_fit_s"];

  const double stages = v["core.medians_s"] + v["core.shape_library_s"] +
                        v["core.label_groups_s"] + v["core.featurize_s"] +
                        v["ml.gbdt_fit_s"];
  v["core.train_s"] = train_s;
  v["core.train_unattributed_s"] = train_s - stages;

  std::printf("  stage accounting of VariationPredictor::Train (%zu rows):\n",
              train.NumRows());
  for (const char* name :
       {"core.medians_s", "core.shape_library_s", "core.label_groups_s",
        "core.featurize_s", "ml.gbdt_fit_s", "core.train_unattributed_s"}) {
    char share[48];
    std::snprintf(share, sizeof(share), "(%.1f%% of core.train_s)",
                  100.0 * v[name] / train_s);
    Report(name, v[name], "s", share);
  }
  Report("core.train_s", train_s, "s", "(= stages + unattributed)");
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "(fit at 1 thread %.4g s / at %d threads %.4g s)", fit_1t_s,
                ParallelThreads(), v["ml.gbdt_fit_s"]);
  Report("ml.gbdt_fit_speedup", v["ml.gbdt_fit_speedup"], "x", detail);
  // Stages re-timed one by one can only exceed the whole by timing noise;
  // a clearly negative remainder means the stage list no longer matches
  // what Train does.
  out->Check(v["core.train_unattributed_s"] >= -0.05 * train_s,
             "training stages sum to more than core.train_s");
}

void MeasureSetupStages(uint64_t seed, Outcome* out) {
  std::map<std::string, double>& v = out->values;
  TrainedSuite t;
  double train_s = 0.0;
  v["sim.build_suite_s"] = TimeSeconds([&] {
    Span span("sim.BuildStudySuite");
    auto suite = sim::BuildStudySuite(ReducedSuiteConfig(seed));
    out->Check(suite.ok(), "BuildStudySuite on the reduced suite");
    if (suite.ok()) t.suite = std::move(*suite);
  });
  if (!out->correct) return;
  const double runs = static_cast<double>(t.suite.d1.telemetry.NumRuns() +
                                          t.suite.d2.telemetry.NumRuns() +
                                          t.suite.d3.telemetry.NumRuns());
  v["sim.runs_per_s"] = runs / v["sim.build_suite_s"];
  train_s = TimeSeconds([&] {
    Span span("core.VariationPredictor::Train");
    auto predictor = core::VariationPredictor::Train(
        t.suite, CanonicalPredictorConfig(core::Normalization::kRatio));
    out->Check(predictor.ok(), "Train on the reduced suite");
    if (predictor.ok()) t.predictor = std::move(*predictor);
  });
  if (!out->correct) return;
  Status evaluated;
  const double evaluate_s = TimeSeconds([&] {
    Span span("core.VariationPredictor::Evaluate");
    evaluated = t.predictor->Evaluate(t.suite.d3.telemetry).status();
  });
  if (evaluated.ok()) {
    v["core.evaluate_s"] = evaluate_s;
  } else {
    // The model can have fewer classes than the library (see serve.cc);
    // Evaluate then fails at once and there is nothing to time.
    std::printf("  NOTE: core.evaluate_s not measured: %s\n",
                evaluated.ToString().c_str());
  }
  std::printf("  set-up pipeline on the reduced suite, stage by stage:\n");
  Report("sim.build_suite_s", v["sim.build_suite_s"], "s");
  Report("sim.runs_per_s", v["sim.runs_per_s"], "1/s");
  Report("core.evaluate_s", v["core.evaluate_s"], "s");
  MeasureTrainStages(t.suite, *t.predictor, train_s, out);
}

std::vector<int> RecurringGroupStream(int num_groups, size_t count,
                                      uint64_t seed) {
  sim::WorkloadConfig config;
  config.num_groups = num_groups;
  config.seed = seed;
  Rng rng(seed ^ 0x9e71a5ULL);
  std::vector<sim::JobGroupSpec> groups(num_groups);
  double rate = 0.0;  // expected submissions per second of the horizon
  for (int g = 0; g < num_groups; ++g) {
    sim::JobGroupSpec& spec = groups[g];
    spec.group_id = g;
    spec.period_seconds =
        config.min_period_seconds *
        std::pow(config.max_period_seconds / config.min_period_seconds,
                 rng.Uniform());
    spec.period_jitter = rng.Uniform(0.05, 0.35);
    if (rng.Bernoulli(0.25)) spec.start_fraction = rng.Uniform(0.0, 0.6);
    rate += (1.0 - spec.start_fraction) / spec.period_seconds;
  }
  // A horizon a little longer than `count` submissions need; lengthened
  // until the schedule holds enough.
  for (double margin = 1.05;; margin *= 1.25) {
    config.interval_days =
        margin * static_cast<double>(count) / rate / 86400.0;
    const std::vector<sim::JobInstanceSpec> schedule =
        sim::WorkloadGenerator(config).GenerateInstances(groups);
    if (schedule.size() < count) continue;
    std::vector<int> stream(count);
    for (size_t i = 0; i < count; ++i) stream[i] = schedule[i].group_id;
    return stream;
  }
}

std::vector<int> DrawGroupShapes(const core::ShapeLibrary& library,
                                 int num_groups, Rng* rng) {
  std::vector<double> weights;
  for (int k = 0; k < library.num_clusters(); ++k) {
    weights.push_back(static_cast<double>(library.stats(k).num_groups));
  }
  std::vector<int> shape_of(num_groups);
  for (int& s : shape_of) s = static_cast<int>(rng->Categorical(weights));
  return shape_of;
}

std::string Digest(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, Fnv1a(bytes));
  return hex;
}

}  // namespace perfbench

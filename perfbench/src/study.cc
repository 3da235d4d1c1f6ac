// Copyright 2026 The rvar Authors.
//
// Workload `study`: the paper pipeline as a batch job, from configuration
// to evaluated predictor — sim::BuildStudySuite on the canonical suite
// (CanonicalSuiteConfig), then VariationPredictor::Train with
// CanonicalPredictorConfig(Ratio) and the run's seed, then
// Evaluate on D3. sim, core training and the ml GBDT fit do nearly all the
// work; serve and io do none.
//
// End-to-end slots: latency = study_s (better-half median and plain median
// over the passes), throughput = studies per second (1 / study_s), ok_ratio =
// the Figure 7 D3 accuracy. Every pass must train a byte-identical model.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "io/serialize.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace rvar;

namespace {

// Passes per run, at least: a pass takes 9-15 s on a 4-core host, so three
// give the better-half median two passes to keep.
constexpr size_t kMinPasses = 3;

struct Pass {
  double build_s = 0.0;
  double train_s = 0.0;
  double evaluate_s = 0.0;
  double study_s = 0.0;
  double accuracy = 0.0;
  size_t runs = 0;
  std::string fingerprint;
  sim::StudySuite suite;
  std::unique_ptr<core::VariationPredictor> predictor;
};

// The trained model's identity: shape library, GBDT and kept columns.
std::string Fingerprint(const core::VariationPredictor& predictor) {
  std::string bytes = io::EncodeShapeLibrary(predictor.shapes()) +
                      io::EncodeGbdtClassifier(*predictor.ModelSnapshot());
  for (size_t f : predictor.kept_features()) bytes += std::to_string(f) + ",";
  return Digest(bytes);
}

// The suite is the canonical one at its own seed, so every run simulates
// and trains on the same data: a suite simulated from the run's seed
// differs in size from seed to seed (about +-8% in simulated runs), and
// study_s with it. The run's seed drives the training's own randomness
// (k-means restarts, GBDT feature sampling) instead.
Pass RunPass(uint64_t seed, Outcome* out) {
  const sim::SuiteConfig suite_config = CanonicalSuiteConfig();
  core::PredictorConfig predictor_config =
      CanonicalPredictorConfig(core::Normalization::kRatio);
  predictor_config.shape.kmeans.seed = seed;
  predictor_config.gbdt.seed = seed ^ 0x57d7ULL;
  Pass pass;
  bool ok = true;
  core::PredictorEvaluation eval;
  const auto start = std::chrono::steady_clock::now();
  {
    Span study("study");
    pass.build_s = TimeSeconds([&] {
      Span span("sim.BuildStudySuite");
      auto suite = sim::BuildStudySuite(suite_config);
      ok = suite.ok();
      if (ok) pass.suite = std::move(*suite);
    });
    if (ok) {
      pass.train_s = TimeSeconds([&] {
        Span span("core.VariationPredictor::Train");
        auto predictor =
            core::VariationPredictor::Train(pass.suite, predictor_config);
        ok = predictor.ok();
        if (ok) pass.predictor = std::move(*predictor);
      });
    }
    if (ok) {
      pass.evaluate_s = TimeSeconds([&] {
        Span span("core.VariationPredictor::Evaluate");
        auto e = pass.predictor->Evaluate(pass.suite.d3.telemetry);
        ok = e.ok();
        if (ok) eval = std::move(*e);
      });
    }
  }
  pass.study_s = SecondsSince(start);
  out->attempted++;
  if (!ok) {
    out->failed++;
    out->Check(false, "the study pipeline returned an error");
    return pass;
  }
  pass.accuracy = eval.accuracy;
  pass.runs = pass.suite.d1.telemetry.NumRuns() +
              pass.suite.d2.telemetry.NumRuns() +
              pass.suite.d3.telemetry.NumRuns();
  pass.fingerprint = Fingerprint(*pass.predictor);
  std::printf(
      "  pass: build %.3f s + train %.3f s + evaluate %.3f s = study %.3f s, "
      "d3_accuracy %.4f, %zu runs, model %s\n",
      pass.build_s, pass.train_s, pass.evaluate_s, pass.study_s,
      pass.accuracy, pass.runs, pass.fingerprint.c_str());
  return pass;
}

}  // namespace

Outcome RunStudy(const Args& args) {
  Outcome out;
  // Set-up is a warm-up pass of the whole pipeline on the reduced suite:
  // it starts the thread pool and faults in code and allocator arenas, so
  // the timed passes measure the pipeline rather than first-touch costs.
  TimeSetup([&] { (void)TrainReduced(args.seed); }, &out);

  std::vector<Pass> passes;
  const auto run_pass = [&] {
    // Only the newest pass keeps its suite and model alive, so peak memory
    // is that of one pipeline.
    if (!passes.empty()) {
      passes.back().suite = sim::StudySuite();
      passes.back().predictor.reset();
    }
    passes.push_back(RunPass(args.seed, &out));
  };
  const auto start = std::chrono::steady_clock::now();
  if (args.trace) {
    // One untraced and one traced pass: their ratio is the tracing
    // overhead, and the traced pass feeds the stage accounting.
    SetTracing(false);
    run_pass();
    SetTracing(true);
    if (out.correct) run_pass();
  } else {
    // At least kMinPasses, which also compares the model fingerprint.
    while (passes.size() < kMinPasses || SecondsSince(start) < args.seconds) {
      run_pass();
      if (!out.correct) break;
    }
  }
  if (!out.correct) return out;

  std::vector<double> study_s;
  for (const Pass& p : passes) {
    study_s.push_back(p.study_s);
    out.Check(p.fingerprint == passes[0].fingerprint,
              "the trained model differs between passes at one seed");
    out.Check(p.accuracy == passes[0].accuracy,
              "d3_accuracy differs between passes at one seed");
  }
  // A handful of passes supports no tail percentile (none has ten passes
  // beyond it), so the tail slot holds the plain median of all passes: the
  // highest figure they support that one slow pass cannot decide. The
  // slowest pass only shows how slow the host ran.
  const double median = BetterHalfMedian(study_s, false);
  const double all_median = Median(study_s);
  const double worst = *std::max_element(study_s.begin(), study_s.end());
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "(better-half median of n=%zu passes; median of all %.6g s, "
                "max %.6g s)",
                study_s.size(), all_median, worst);
  Report("study_s", median, "s", detail);
  Report("d3_accuracy", passes[0].accuracy, "ratio");
  out.values["latency_p50_us"] = median * 1e6;
  out.values["latency_p99_us"] = all_median * 1e6;
  out.values["throughput_per_s"] = 1.0 / median;
  out.values["ok_ratio"] = passes[0].accuracy;
  Report("throughput_per_s", out.values["throughput_per_s"], "1/s",
         "(studies per second, 1 / study_s)");

  if (args.trace) {
    const Pass& untraced = passes[0];
    const Pass& traced = passes[1];
    std::map<std::string, double>& v = out.values;
    v["trace.overhead_ratio"] = traced.study_s / untraced.study_s;
    v["sim.build_suite_s"] = traced.build_s;
    v["sim.runs_per_s"] = static_cast<double>(traced.runs) / traced.build_s;
    v["core.evaluate_s"] = traced.evaluate_s;
    Report("trace.overhead_ratio", v["trace.overhead_ratio"], "x",
           "(traced study_s / untraced study_s)");
    Report("sim.build_suite_s", traced.build_s, "s");
    Report("sim.runs_per_s", v["sim.runs_per_s"], "1/s");
    Report("core.evaluate_s", traced.evaluate_s, "s");
    const double parts = traced.build_s + traced.train_s + traced.evaluate_s;
    char sum[128];
    std::snprintf(sum, sizeof(sum),
                  "(sim.build_suite_s + core.train_s + core.evaluate_s = "
                  "%.6g s)",
                  parts);
    Report("study_s(traced)", traced.study_s, "s", sum);
    // The three calls are the whole pass; what is left between them is
    // loop glue and span bookkeeping.
    const double tolerance =
        std::max(0.01, std::abs(v["trace.overhead_ratio"] - 1.0)) *
        traced.study_s;
    out.Check(std::abs(traced.study_s - parts) <= tolerance,
              "stage times do not sum to study_s within the tracing "
              "overhead");
    MeasureTrainStages(traced.suite, *traced.predictor, traced.train_s, &out);
    MeasurePredictKernels(*traced.predictor, traced.suite.d3.telemetry.runs(),
                          &out);
  }
  return out;
}

}  // namespace perfbench

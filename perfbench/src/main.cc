// Copyright 2026 The rvar Authors.
//
// rvar_perfbench: runs one benchmark workload against the library in its
// default configuration and prints, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Without
// tracing the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set, taken from the benchmark's own spans. Both sets match
// BENCHMARK.json at the repository root (perfbench/run.py checks this).
//
// Usage:
//   rvar_perfbench --workload study|serve|ingest|durable --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"); plan.json gives each one's meaning per workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},   {"ok_ratio", "ratio"},
};

// The per-layer metrics (BENCHMARK.json "per_layer"). A workload that
// never calls a layer reports that layer's metrics as 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.build_suite_s", "s"},
    {"sim.runs_per_s", "1/s"},
    {"core.medians_s", "s"},
    {"core.shape_library_s", "s"},
    {"core.label_groups_s", "s"},
    {"core.featurize_s", "s"},
    {"ml.gbdt_fit_s", "s"},
    {"core.train_s", "s"},
    {"core.train_unattributed_s", "s"},
    {"ml.gbdt_fit_speedup", "ratio"},
    {"core.evaluate_s", "s"},
    {"core.predict_batch_us_per_row", "us"},
    {"core.predict_from_features_us_per_row", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.shed_ratio", "ratio"},
    {"serve.shed_ratio.queue_full", "ratio"},
    {"serve.shed_ratio.watermark", "ratio"},
    {"serve.shed_ratio.tokens", "ratio"},
    {"serve.shed_ratio.deadline", "ratio"},
    {"serve.degraded_ratio", "ratio"},
    {"serve.generator_lag_p99_us", "us"},
    {"core.observe_p50_us", "us"},
    {"core.observe_p99_us", "us"},
    {"core.shard_speedup", "ratio"},
    {"core.state_bytes_per_group", "bytes"},
    {"core.query_p50_us", "us"},
    {"core.query_p99_us", "us"},
    {"core.pmf_cache_hit_ratio", "ratio"},
    {"obs.observe_sampling_ratio", "ratio"},
    {"io.append_p50_us", "us"},
    {"io.append_p99_us", "us"},
    {"io.wal_bytes_per_obs", "bytes"},
    {"io.checkpoint_s", "s"},
    {"io.snapshot_bytes", "bytes"},
    {"io.replay_rps", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rvar_perfbench: %s\nusage: rvar_perfbench --workload "
               "study|serve|ingest|durable --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

// JSON number with every digit of the double; non-finite values have no
// JSON form and mark the run incorrect instead.
std::string JsonNumber(double v, bool* finite) {
  if (!std::isfinite(v)) {
    *finite = false;
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);

  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "study") run = RunStudy;
  if (args.workload == "serve") run = RunServe;
  if (args.workload == "ingest") run = RunIngest;
  if (args.workload == "durable") run = RunDurable;
  if (run == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::printf("== rvar_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Outcome outcome = run(args);
  outcome.values["peak_rss_mb"] = PeakRssMb();
  Report("peak_rss_mb", outcome.values["peak_rss_mb"], "MB");

  if (args.trace) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    outcome.Check(DumpSpans(path), "writing the span file " + path);
    std::printf("spans written to %s\n", path.c_str());
  }

  std::string metrics;
  bool finite = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = outcome.values.find(spec.name);
    if (it == outcome.values.end()) {
      outcome.Check(!required, std::string("metric not measured: ") +
                                   spec.name);
      it = outcome.values.emplace(spec.name, 0.0).first;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               JsonNumber(it->second, &finite) + ", \"unit\": \"" +
               spec.unit + "\"}";
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  outcome.Check(finite, "a metric is not a finite number");
  outcome.Check(outcome.attempted >= 1, "the run attempted no operation");

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

// Copyright 2026 The rvar Authors.
//
// Workload `ingest`: a long stream of core::ShapeService::Observe calls,
// one read in every kReadEvery operations of a group the same thread
// wrote recently (PriorShape, MostLikely and Posterior in turn), on a
// default-options service over the library the set-up trained. The groups
// and the order of their observations follow the simulator's
// recurring-workload model (RecurringGroupStream): kGroups groups whose
// submission rates differ by up to 24x, so the sketch state is far larger
// than the CPU caches. Values are drawn from each group's library shape
// with SampleNormalized. Groups are partitioned across the threads
// (group % threads), so each group's observation order — and with it the
// final state — does not depend on timing. Each pass ingests the whole
// stream into a fresh service; passes repeat until the run's time is up.
//
// End-to-end slots: throughput = observe_rps (observations per second of
// a pass, reads included), latency p50/p99 = the reads' latency; each is
// the median of the better half of the passes (stats.h BetterHalfMedian).
// ok_ratio = TotalObservations() / the number sent.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/shape_service.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace rvar;
using Clock = std::chrono::steady_clock;

namespace {

// The population size, the read share and the recent-group window are
// assumptions, not measured figures (perfbench/plan.json, assumptions):
// 200k groups put the sketch state well beyond the caches, and a read
// every 8 operations of one of the thread's last 64 groups keeps reads
// beside the writes that invalidate their cache entries.
constexpr int kGroups = 200000;
constexpr size_t kObservations = 2000000;
constexpr int kReadEvery = 8;
constexpr int kRecentGroups = 64;

// kind 0 = Observe(group, value); 1..3 = PriorShape / MostLikely /
// Posterior of `group`.
struct Op {
  int32_t group;
  int32_t kind;
  double value;
};

struct Inputs {
  TrainedSuite trained;
  std::vector<std::vector<Op>> ops;  // per thread
  size_t observations = 0;
};

Inputs MakeInputs(uint64_t seed, int threads) {
  Inputs in;
  in.trained = TrainReduced(seed);
  const core::VariationPredictor& predictor = *in.trained.predictor;
  const int k = predictor.shapes().num_clusters();
  Rng rng(seed ^ 0x1a6e57ULL);
  const std::vector<int> stream =
      RecurringGroupStream(kGroups, kObservations, seed);
  const std::vector<int> shape_of =
      DrawGroupShapes(predictor.shapes(), kGroups, &rng);
  std::vector<std::vector<double>> pool(k);
  for (int c = 0; c < k; ++c) {
    pool[c] = predictor.SampleNormalized(c, 4096, &rng);
  }

  in.ops.assign(threads, {});
  std::vector<std::vector<int>> recent(threads);
  std::vector<int> until_read(threads, kReadEvery);
  std::vector<int> next_kind(threads, 1);
  for (const int group : stream) {
    const int t = group % threads;
    const std::vector<double>& values = pool[shape_of[group]];
    in.ops[t].push_back(
        {group, 0, values[rng.UniformInt(0, values.size() - 1)]});
    std::vector<int>& r = recent[t];
    if (r.size() < kRecentGroups) {
      r.push_back(group);
    } else {
      r[rng.UniformInt(0, kRecentGroups - 1)] = group;
    }
    if (--until_read[t] == 0) {
      until_read[t] = kReadEvery;
      in.ops[t].push_back(
          {r[rng.UniformInt(0, r.size() - 1)], next_kind[t], 0.0});
      next_kind[t] = next_kind[t] % 3 + 1;
    }
  }
  in.observations = kObservations;
  return in;
}

struct PassResult {
  double seconds = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  int64_t failed = 0;
  int64_t reads = 0;
  int64_t total_observations = 0;
  std::string digest;
  std::unique_ptr<core::ShapeService> service;
};

// One pass: a fresh service ingests every thread's operations.
PassResult RunPass(const Inputs& in, const core::ShapeService::Options& options,
                   Outcome* out) {
  PassResult pass;
  auto service =
      core::ShapeService::Make(&in.trained.predictor->shapes(), options);
  out->Check(service.ok(), "ShapeService::Make");
  if (!service.ok()) return pass;
  core::ShapeService* svc = service->get();
  const size_t threads = in.ops.size();
  std::vector<std::vector<double>> read_us(threads);
  std::vector<int64_t> failed(threads, 0);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double>& lat = read_us[t];
      lat.reserve(in.ops[t].size() / kReadEvery + 1);
      int64_t sink = 0;
      for (const Op& op : in.ops[t]) {
        if (op.kind == 0) {
          Span span("core.ShapeService::Observe");
          if (!svc->Observe(op.group, op.value).ok()) ++failed[t];
          continue;
        }
        const auto t0 = Clock::now();
        if (op.kind == 1) {
          Span span("core.ShapeService::PriorShape");
          sink += svc->PriorShape(op.group);
        } else if (op.kind == 2) {
          Span span("core.ShapeService::MostLikely");
          sink += svc->MostLikely(op.group);
        } else {
          Span span("core.ShapeService::Posterior");
          sink += static_cast<int64_t>(svc->Posterior(op.group).size());
        }
        lat.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      if (sink == -1) std::printf("unreachable\n");
    });
  }
  for (std::thread& w : workers) w.join();
  pass.seconds = SecondsSince(start);
  std::vector<double> all;
  for (size_t t = 0; t < threads; ++t) {
    all.insert(all.end(), read_us[t].begin(), read_us[t].end());
    pass.failed += failed[t];
  }
  pass.reads = static_cast<int64_t>(all.size());
  pass.read_p50_us = Quantile(&all, 0.5);
  pass.read_p99_us = Quantile(&all, 0.99);
  pass.total_observations = svc->TotalObservations();
  pass.digest = Digest(io::EncodeShapeServiceState(*svc));
  pass.service = std::move(*service);
  return pass;
}

// The reference answer: the same operations on one thread and one shard,
// each thread's list in turn (groups never cross lists, so every group
// sees the same observation order as in the parallel passes).
std::string ReplayDigest(const Inputs& in) {
  core::ShapeService::Options options;
  options.num_shards = 1;
  auto service =
      core::ShapeService::Make(&in.trained.predictor->shapes(), options);
  if (!service.ok()) return "";
  for (const std::vector<Op>& ops : in.ops) {
    for (const Op& op : ops) {
      if (op.kind == 0) (void)(*service)->Observe(op.group, op.value);
    }
  }
  return Digest(io::EncodeShapeServiceState(**service));
}

double Rate(const Inputs& in, const PassResult& pass) {
  return static_cast<double>(in.observations) / pass.seconds;
}

}  // namespace

Outcome RunIngest(const Args& args) {
  Outcome out;
  const int threads = ParallelThreads();
  Inputs in;
  TimeSetup([&] { in = MakeInputs(args.seed, threads); }, &out);
  std::printf("  %zu observations + reads over %d recurring groups on %d "
              "threads\n",
              in.observations, kGroups, threads);

  SetTracing(false);
  const core::ShapeService::Options defaults;
  // One untimed pass first: the allocator's arenas grow to the state's
  // size once, and every timed pass then reuses them.
  (void)RunPass(in, defaults, &out);
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  while (passes.size() < 2 || SecondsSince(start) < args.seconds) {
    passes.push_back(RunPass(in, defaults, &out));
    if (!out.correct) return out;
    passes.back().service.reset();
    std::printf("  pass: %.4f s (%.4g observe/s), read p50 %.3f us p99 %.3f "
                "us, state %s\n",
                passes.back().seconds, Rate(in, passes.back()),
                passes.back().read_p50_us, passes.back().read_p99_us,
                passes.back().digest.c_str());
  }
  std::vector<double> rate, p50, p99;
  for (const PassResult& p : passes) {
    out.attempted += static_cast<int64_t>(in.observations) + p.reads;
    out.failed += p.failed;
    rate.push_back(Rate(in, p));
    p50.push_back(p.read_p50_us);
    p99.push_back(p.read_p99_us);
    out.Check(p.total_observations == static_cast<int64_t>(in.observations),
              "TotalObservations() differs from the number sent");
    out.Check(p.digest == passes[0].digest,
              "the exported state differs between passes");
  }
  const std::string replay = ReplayDigest(in);
  out.Check(replay == passes[0].digest,
            "the exported state differs from a 1-thread, 1-shard replay");
  std::printf("  state digest %s, 1-thread 1-shard replay %s\n",
              passes[0].digest.c_str(), replay.c_str());

  out.values["throughput_per_s"] = BetterHalfMedian(rate, true);
  out.values["latency_p50_us"] = BetterHalfMedian(p50, false);
  out.values["latency_p99_us"] = BetterHalfMedian(p99, false);
  out.values["ok_ratio"] =
      static_cast<double>(passes[0].total_observations) /
      static_cast<double>(in.observations);
  char detail[96];
  std::snprintf(detail, sizeof(detail), "(better-half median of n=%zu passes)",
                passes.size());
  Report("observe_rps", out.values["throughput_per_s"], "1/s", detail);
  Report("query_p50_us", out.values["latency_p50_us"], "us", detail);
  Report("query_p99_us", out.values["latency_p99_us"], "us", detail);

  if (args.trace) {
    std::map<std::string, double>& v = out.values;
    const double base_rate = out.values["throughput_per_s"];
    core::ShapeService::Options one_shard;
    one_shard.num_shards = 1;
    PassResult single = RunPass(in, one_shard, &out);
    single.service.reset();
    v["core.shard_speedup"] = base_rate / Rate(in, single);

    obs::SetSampling(false);
    PassResult unsampled = RunPass(in, defaults, &out);
    obs::SetSampling(true);
    unsampled.service.reset();
    v["obs.observe_sampling_ratio"] = Rate(in, unsampled) / base_rate;

    // The cache counters are read around the traced pass only: it runs
    // the default options (the cache is per shard, so the 1-shard pass
    // above would mix in a sixteenth of the default capacity).
    obs::Registry& registry = obs::Registry::Default();
    obs::Counter* hits = registry.GetCounter("shape_service_pmf_cache_hits");
    obs::Counter* misses =
        registry.GetCounter("shape_service_pmf_cache_misses");
    const int64_t hits0 = hits->Value(), misses0 = misses->Value();
    SetTracing(true);
    PassResult traced = RunPass(in, defaults, &out);
    SetTracing(false);
    const int64_t h = hits->Value() - hits0, m = misses->Value() - misses0;
    v["core.pmf_cache_hit_ratio"] =
        static_cast<double>(h) /
        static_cast<double>(std::max<int64_t>(1, h + m));
    v["trace.overhead_ratio"] = base_rate / Rate(in, traced);
    std::vector<double> observe_s = SpanSeconds("core.ShapeService::Observe");
    std::vector<double> query_s;
    for (const char* name :
         {"core.ShapeService::PriorShape", "core.ShapeService::MostLikely",
          "core.ShapeService::Posterior"}) {
      const std::vector<double> s = SpanSeconds(name);
      query_s.insert(query_s.end(), s.begin(), s.end());
    }
    for (double& s : observe_s) s *= 1e6;
    for (double& s : query_s) s *= 1e6;
    const Percentiles observe = ReportLatency("core.observe", observe_s, "us");
    const Percentiles query = ReportLatency("core.query", query_s, "us");
    v["core.observe_p50_us"] = observe.p50;
    v["core.observe_p99_us"] = observe.p99;
    v["core.query_p50_us"] = query.p50;
    v["core.query_p99_us"] = query.p99;

    size_t bytes = 0;
    const std::vector<core::ShapeService::GroupState> state =
        traced.service->ExportState();
    for (const auto& g : state) {
      bytes += sizeof(g) + g.log_likelihood.size() * sizeof(double) +
               (g.sketch ? g.sketch->MemoryBytes() : 0);
    }
    v["core.state_bytes_per_group"] =
        static_cast<double>(bytes) / static_cast<double>(state.size());

    char base[96];
    std::snprintf(base, sizeof(base), "(default %.4g /s, 1 shard %.4g /s)",
                  base_rate, Rate(in, single));
    Report("core.shard_speedup", v["core.shard_speedup"], "x", base);
    std::snprintf(base, sizeof(base), "(sampling off %.4g /s, default %.4g /s)",
                  Rate(in, unsampled), base_rate);
    Report("obs.observe_sampling_ratio", v["obs.observe_sampling_ratio"], "x",
           base);
    std::snprintf(base, sizeof(base),
                  "(%lld hits of %lld lookups, one default pass)",
                  static_cast<long long>(h), static_cast<long long>(h + m));
    Report("core.pmf_cache_hit_ratio", v["core.pmf_cache_hit_ratio"], "", base);
    std::snprintf(base, sizeof(base), "(%zu groups)", state.size());
    Report("core.state_bytes_per_group", v["core.state_bytes_per_group"],
           "bytes", base);
    Report("trace.overhead_ratio", v["trace.overhead_ratio"], "x",
           "(observe_rps untraced / traced)");
    traced.service.reset();
    MeasurePredictKernels(*in.trained.predictor,
                          in.trained.suite.d3.telemetry.runs(), &out);
    MeasureSetupStages(args.seed, &out);
  }
  return out;
}

}  // namespace perfbench

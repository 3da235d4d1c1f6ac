// Copyright 2026 The rvar Authors.
//
// Workload `serve`: open-loop shape predictions for D3 runs through
// serve::ServingFrontend::Submit, in the front-end's default options over
// a default ShapeService holding the canonical predictor configuration
// trained on the reduced suite (the set-up). One generator thread sends on
// a fixed schedule, with a seeded mix of the three priority tiers, at the
// rates of a fixed ladder, alternating with short windows at one fixed
// reference rate. Each request is timed from when it was due, not from
// when the generator got round to sending it, so a stall is charged to
// every request it delays (no coordinated omission), to the moment a
// collector thread of the benchmark sees its future become ready; the
// library's own latency_seconds is not used. A step or window
// whose generator ran later than the latency limit measured the
// generator, not the server, and is invalid.
//
// End-to-end slots: throughput = the highest ladder rate whose p99 stays
// within kLatencyLimitUs, whose failed-or-shed share stays within
// kMaxFailRatio and whose backlog does not grow; latency p50/p99 = the
// reference rate's due-to-response latency with failed and shed requests
// counted as misses (see Summarize); ok_ratio = the reference rate's
// served share (1 - predict_fail_ratio).

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/shape_service.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace rvar;
using Clock = std::chrono::steady_clock;

namespace {

// Ladder rates (requests/s), ascending; the ladder stops after two
// consecutive failing steps or past the top rung. From 24k/s to 50k/s,
// where the default front-end reaches its limit on a 4-core host, the
// steps are 1.05x apart, so a one-step jitter in where the ladder stops
// moves the maximum by a twentieth; 1.1x steps above leave room for a
// front-end up to 2.5x faster.
constexpr double kLadder[] = {
    4000,  8000,  16000, 24000, 25200, 26500, 27800, 29200, 30600,
    32200, 33800, 35500, 37200, 39100, 41000, 43100, 45200, 47500,
    49900, 54900, 60400, 66400, 73000, 80300, 88300, 97100, 106800,
    117500, 129300};
constexpr double kReferenceRate = 8000;
constexpr double kLatencyLimitUs = 20000;
constexpr double kMaxFailRatio = 0.01;
constexpr double kLadderStepSeconds = 0.25;
constexpr size_t kReferenceWindows = 32;
constexpr double kWindowSeconds = 0.125;
// Reference windows and the whole ladder must fit in this; the ladder
// itself takes 10-25 s on a 4-core host.
constexpr double kMaxRunSeconds = 90;

struct Inputs {
  TrainedSuite trained;
  std::unique_ptr<core::ShapeService> service;
  std::vector<int> expected;  // PredictShapeBatch answer per D3 run
  // The request stream: D3 run index and tier per request, from the seed.
  std::vector<uint32_t> run_of;
  std::vector<serve::Priority> tier_of;
};

Inputs MakeInputs(uint64_t seed, Outcome* out) {
  Inputs in;
  in.trained = TrainReduced(seed);
  const core::VariationPredictor& predictor = *in.trained.predictor;
  auto service = core::ShapeService::Make(&predictor.shapes());
  out->Check(service.ok(), "ShapeService::Make with default options");
  if (!service.ok()) return in;
  in.service = std::move(*service);
  in.service->SwapModel(predictor.ModelSnapshot());

  const std::vector<sim::JobRun>& runs = in.trained.suite.d3.telemetry.runs();
  std::vector<const sim::JobRun*> ptrs;
  for (const sim::JobRun& run : runs) ptrs.push_back(&run);
  out->Check(!runs.empty(), "the reduced suite has D3 runs");
  auto expected = predictor.PredictShapeBatch(ptrs);
  if (expected.ok()) {
    in.expected = std::move(*expected);
  } else {
    // Train can fit a GBDT with fewer classes than the library when D2's
    // labels miss the top shape; the front-end then rejects the model and
    // serves every request from a lower rung, which the answers show.
    std::printf("  NOTE: PredictShapeBatch fails for this seed's model (%s); "
                "no answer can come from the full model\n",
                expected.status().ToString().c_str());
    in.expected.assign(runs.size(), -1);
  }

  // Requests pick a group uniformly, then one of its D3 runs: group ids
  // are 0..num_groups-1 at every seed, so the load each front-end shard
  // sees is the same at every seed.
  std::map<int, std::vector<uint32_t>> runs_of_group;
  for (size_t i = 0; i < runs.size(); ++i) {
    runs_of_group[runs[i].group_id].push_back(static_cast<uint32_t>(i));
  }
  std::vector<const std::vector<uint32_t>*> groups;
  for (const auto& [gid, list] : runs_of_group) groups.push_back(&list);
  Rng rng(seed ^ 0x5e27e5e27ULL);
  constexpr size_t kStream = 1 << 20;
  in.run_of.resize(kStream);
  in.tier_of.resize(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    const std::vector<uint32_t>& list =
        *groups[rng.UniformInt(0, groups.size() - 1)];
    in.run_of[i] = list[rng.UniformInt(0, list.size() - 1)];
    // The 50/35/15 tier mix is an assumption, not a measured figure: no
    // source in the repository or the paper gives one. It keeps every
    // tier's admission path busy (perfbench/plan.json, assumptions).
    const double u = rng.Uniform();
    in.tier_of[i] = u < 0.5    ? serve::Priority::kInteractive
                    : u < 0.85 ? serve::Priority::kStandard
                               : serve::Priority::kBestEffort;
  }
  return in;
}

struct StepOutput {
  RateStep step;
  std::vector<double> latency_us;  // served requests, due to response
  std::vector<double> lag_us;      // generator lateness per request
  int64_t attempted = 0;
  int64_t failed = 0;      // shed or unresolved: misses
  int64_t unresolved = 0;  // futures that never resolved
};

// Sends `rate` requests/s for `seconds` on a fixed schedule and checks
// every answer. Each request's completion is stamped by the benchmark, not
// taken from the response: a collector thread polls the outstanding
// futures and records the time at which each becomes ready, so every
// latency is measured outside the library, from the request's due time.
StepOutput RunStep(serve::ServingFrontend* frontend, const Inputs& in,
                   double rate, double seconds, size_t* cursor,
                   Outcome* out) {
  const std::vector<sim::JobRun>& runs = in.trained.suite.d3.telemetry.runs();
  const int num_shapes = in.trained.predictor->shapes().num_clusters();
  const size_t n = static_cast<size_t>(rate * seconds);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const size_t sample_every = std::max<size_t>(1, n / 200);

  struct Sent {
    Clock::time_point due;
    Clock::time_point submitted;
    uint32_t run;
    std::future<serve::PredictResponse> answer;
  };
  struct Done {
    Clock::time_point due;
    Clock::time_point submitted;
    Clock::time_point done;
    uint32_t run;
    bool resolved;
    serve::PredictResponse response;
  };
  std::mutex mu;
  std::vector<Sent> handed;   // guarded by mu
  bool sending_done = false;  // guarded by mu
  std::vector<Done> done;     // written by the collector only
  done.reserve(n);
  std::thread collector([&] {
    std::vector<Sent> outstanding, incoming;
    Clock::time_point give_up = Clock::time_point::max();
    for (;;) {
      bool last;
      {
        std::lock_guard<std::mutex> lock(mu);
        incoming.swap(handed);
        last = sending_done;
      }
      for (Sent& s : incoming) outstanding.push_back(std::move(s));
      incoming.clear();
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        Sent& s = outstanding[i];
        if (s.answer.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const Clock::time_point now = Clock::now();
          done.push_back({s.due, s.submitted, now, s.run, true,
                          s.answer.get()});
        } else {
          if (kept != i) outstanding[kept] = std::move(s);
          ++kept;
        }
      }
      const bool progressed = kept < outstanding.size();
      outstanding.erase(outstanding.begin() + kept, outstanding.end());
      if (last) {
        if (outstanding.empty()) break;
        if (give_up == Clock::time_point::max()) {
          give_up = Clock::now() + std::chrono::seconds(10);
        }
        if (Clock::now() > give_up) {
          for (Sent& s : outstanding) {
            done.push_back({s.due, s.submitted, give_up, s.run, false, {}});
          }
          break;
        }
      }
      if (!progressed) std::this_thread::yield();
    }
  });

  std::vector<double> depth;
  StepOutput o;
  o.step.rate = rate;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * i);
    // Sleep, never spin: a spinning generator would take a core from the
    // front-end's worker and the thread pool. Sleep overshoot is charged
    // to the request through its due time.
    std::this_thread::sleep_until(due);
    const size_t k = (*cursor)++ % in.run_of.size();
    serve::PredictRequest request;
    request.run = &runs[in.run_of[k]];
    request.priority = in.tier_of[k];
    const Clock::time_point submitted = Clock::now();
    std::future<serve::PredictResponse> answer;
    {
      Span span("serve.ServingFrontend::Submit");
      answer = frontend->Submit(request);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      handed.push_back({due, submitted, in.run_of[k], std::move(answer)});
    }
    if (i % sample_every == 0) {
      depth.push_back(static_cast<double>(frontend->queue_depth()));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  collector.join();

  bool shapes_valid = true, model_matches = true;
  size_t misses = 0;
  for (const Done& d : done) {
    o.lag_us.push_back(
        std::chrono::duration<double, std::micro>(d.submitted - d.due)
            .count());
    if (!d.resolved) {
      ++o.unresolved;
      ++misses;
      continue;
    }
    const serve::PredictResponse& r = d.response;
    if (!r.served()) {
      ++misses;
      continue;
    }
    shapes_valid &= r.shape >= 0 && r.shape < num_shapes;
    if (r.level == serve::DegradationLevel::kFullModel) {
      model_matches &= r.shape == in.expected[d.run];
    }
    o.latency_us.push_back(
        std::chrono::duration<double, std::micro>(d.done - d.due).count());
  }
  out->Check(done.size() == n, "the collector lost a request");
  out->Check(o.unresolved == 0, "a request's future never resolved");
  out->Check(shapes_valid, "a served shape lies outside [0, K)");
  out->Check(model_matches,
             "a full-model answer differs from PredictShapeBatch");
  o.attempted = static_cast<int64_t>(n);
  o.failed = static_cast<int64_t>(misses);
  o.step.p99_us = QuantileWithMisses(o.latency_us, misses, 0.99);
  o.step.fail_ratio = n == 0 ? 0.0 : static_cast<double>(misses) / n;
  o.step.backlog_grew = BacklogGrows(depth, /*slack=*/64.0);
  std::vector<double> lag = o.lag_us;
  o.step.valid = Quantile(&lag, 0.99) <= kLatencyLimitUs;
  return o;
}

// Deltas of the front-end's own serve_* registry entries over a phase.
struct ServeCounters {
  int64_t requests = 0;
  int64_t served[serve::kNumDegradationLevels] = {};
  int64_t shed[serve::kNumShedReasons] = {};
  double batch_sum = 0.0;
  int64_t batches = 0;
  std::vector<int64_t> queue_wait_buckets;

  static ServeCounters Read() {
    obs::Registry& r = obs::Registry::Default();
    ServeCounters c;
    c.requests = r.GetCounter("serve_requests_total")->Value();
    for (int l = 0; l < serve::kNumDegradationLevels; ++l) {
      c.served[l] = r.GetCounter("serve_served_total", "level",
                                 serve::DegradationLevelName(
                                     static_cast<serve::DegradationLevel>(l)))
                        ->Value();
    }
    for (int s = 0; s < serve::kNumShedReasons; ++s) {
      c.shed[s] = r.GetCounter("serve_shed_total", "reason",
                               serve::ShedReasonName(
                                   static_cast<serve::ShedReason>(s)))
                      ->Value();
    }
    obs::Histogram* batch = r.GetHistogram("serve_batch_size");
    c.batch_sum = batch->Sum();
    c.batches = batch->Count();
    c.queue_wait_buckets =
        r.GetHistogram("serve_queue_wait_seconds")->BucketCounts();
    return c;
  }
};

void ReportLayerCounters(const ServeCounters& before,
                         const ServeCounters& after, Outcome* out) {
  std::map<std::string, double>& v = out->values;
  const double requests = static_cast<double>(after.requests - before.requests);
  int64_t shed_total = 0;
  const std::pair<serve::ShedReason, const char*> reasons[] = {
      {serve::ShedReason::kQueueFull, "serve.shed_ratio.queue_full"},
      {serve::ShedReason::kWatermark, "serve.shed_ratio.watermark"},
      {serve::ShedReason::kTokens, "serve.shed_ratio.tokens"},
      {serve::ShedReason::kDeadline, "serve.shed_ratio.deadline"},
  };
  for (int s = 1; s < serve::kNumShedReasons; ++s) {
    shed_total += after.shed[s] - before.shed[s];
  }
  for (const auto& [reason, name] : reasons) {
    const size_t r = static_cast<size_t>(reason);
    v[name] = static_cast<double>(after.shed[r] - before.shed[r]) / requests;
  }
  v["serve.shed_ratio"] = static_cast<double>(shed_total) / requests;
  int64_t served = 0;
  for (int l = 0; l < serve::kNumDegradationLevels; ++l) {
    served += after.served[l] - before.served[l];
  }
  const int64_t full = after.served[0] - before.served[0];
  v["serve.degraded_ratio"] =
      served == 0 ? 0.0 : static_cast<double>(served - full) / served;
  v["serve.batch_size_mean"] =
      (after.batch_sum - before.batch_sum) /
      static_cast<double>(std::max<int64_t>(1, after.batches - before.batches));

  // p99 of the queue-wait histogram's bucket deltas (upper bucket bound).
  obs::Histogram* wait =
      obs::Registry::Default().GetHistogram("serve_queue_wait_seconds");
  std::vector<int64_t> delta = after.queue_wait_buckets;
  int64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] -= before.queue_wait_buckets[i];
    total += delta[i];
  }
  const int64_t rank = (total * 99 + 99) / 100;
  int64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (seen >= rank && total > 0) {
      v["serve.queue_wait_p99_us"] =
          wait->BucketUpperBound(static_cast<int>(i)) * 1e6;
      break;
    }
  }
  std::printf("  serve counters over the run: %.0f requests, served %lld "
              "(full-model %lld), shed %lld\n",
              requests, static_cast<long long>(served),
              static_cast<long long>(full),
              static_cast<long long>(shed_total));
  for (const char* name :
       {"serve.shed_ratio", "serve.shed_ratio.queue_full",
        "serve.shed_ratio.watermark", "serve.shed_ratio.tokens",
        "serve.shed_ratio.deadline", "serve.degraded_ratio",
        "serve.batch_size_mean", "serve.queue_wait_p99_us"}) {
    Report(name, v[name], "", "(serve_* registry, whole run)");
  }
}

// The reference rate is measured in short windows spread over the whole
// run, between the ladder's steps. The host's own scheduler stalls come
// and go on a scale of seconds and dominate a tail percentile whenever
// they hit, so the latency figures are medians over the quietest quarter
// of the windows, judged by how late the generator ran — a measure of the
// host, not of the server. A window whose generator ran later than the
// latency limit is invalid and never counts.
struct Window {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lag_p99_us = 0.0;
  StepOutput step;
};

Window RunWindow(serve::ServingFrontend* frontend, const Inputs& in,
                 size_t* cursor, Outcome* out) {
  Window w;
  w.step = RunStep(frontend, in, kReferenceRate, kWindowSeconds, cursor, out);
  std::vector<double> lag = w.step.lag_us;
  w.lag_p99_us = Quantile(&lag, 0.99);
  w.p50_us = QuantileWithMisses(w.step.latency_us, w.step.failed, 0.5);
  w.p99_us = w.step.step.p99_us;
  return w;
}

struct Reference {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lag_p99_us = 0.0;
  double fail_ratio = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;      // shed or unresolved
  int64_t unresolved = 0;  // never answered at all
};

Reference Summarize(const std::vector<Window>& windows, Outcome* out) {
  Reference ref;
  std::vector<const Window*> valid;
  std::vector<double> lag, pooled;
  for (const Window& w : windows) {
    ref.attempted += w.step.attempted;
    ref.failed += w.step.failed;
    ref.unresolved += w.step.unresolved;
    pooled.insert(pooled.end(), w.step.latency_us.begin(),
                  w.step.latency_us.end());
    if (!w.step.step.valid) continue;
    valid.push_back(&w);
    lag.push_back(w.lag_p99_us);
  }
  out->Check(2 * valid.size() > windows.size(),
             "the generator fell behind the reference schedule by more than "
             "the latency limit in most windows; the run is invalid");
  std::vector<double> p50, p99, quiet_lag;
  for (size_t i : QuietestWindows(lag, (windows.size() + 3) / 4)) {
    p50.push_back(valid[i]->p50_us);
    p99.push_back(valid[i]->p99_us);
    quiet_lag.push_back(valid[i]->lag_p99_us);
  }
  ref.p50_us = Median(p50);
  ref.p99_us = Median(p99);
  ref.lag_p99_us = Median(quiet_lag);
  ref.fail_ratio =
      static_cast<double>(ref.failed) / static_cast<double>(ref.attempted);
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "(at %.0f/s, median of the quietest %zu of %zu %.2f s "
                "windows, n=%lld)",
                kReferenceRate, p50.size(), windows.size(), kWindowSeconds,
                static_cast<long long>(ref.attempted));
  (void)ReportLatency("predict(all windows)", pooled, "us");
  Report("predict_p50_us", ref.p50_us, "us", detail);
  Report("predict_p99_us", ref.p99_us, "us", detail);
  Report("predict_fail_ratio", ref.fail_ratio, "ratio", detail);
  Report("generator_lag_p99_us", ref.lag_p99_us, "us", detail);
  return ref;
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  Inputs in;
  TimeSetup([&] { in = MakeInputs(args.seed, &out); }, &out);
  if (!out.correct) return out;

  auto frontend = serve::ServingFrontend::Make(
      in.service.get(), in.trained.predictor.get(), serve::FrontendOptions{});
  out.Check(frontend.ok(), "ServingFrontend::Make with default options");
  if (!frontend.ok()) return out;

  const ServeCounters before = ServeCounters::Read();
  const StepLimits limits{kLatencyLimitUs, kMaxFailRatio};
  size_t cursor = 0;
  // Warm-up at the reference rate (untimed): first batches fault in the
  // forest and start the thread pool.
  SetTracing(false);
  (void)RunStep(frontend->get(), in, kReferenceRate, 0.2, &cursor, &out);

  // Reference windows and ladder steps alternate, so both sample the whole
  // run rather than one stretch of the host's noise. The ladder ends only
  // at two consecutive failing steps or past its top rung, never on the
  // clock: a ladder cut short by time would pass off the last rate it
  // reached as the server's limit. A run that overstays kMaxRunSeconds
  // fails instead. Windows continue after the ladder until the run's
  // --seconds are used.
  const auto start = std::chrono::steady_clock::now();
  std::vector<Window> windows;
  std::vector<RateStep> steps;
  size_t next_rate = 0;
  const auto ladder_open = [&] {
    return next_rate < std::size(kLadder) && !LadderDone(steps, limits);
  };
  bool overstayed = false;
  while (windows.size() < kReferenceWindows || ladder_open() ||
         SecondsSince(start) < args.seconds) {
    if (SecondsSince(start) > kMaxRunSeconds) {
      overstayed = true;
      break;
    }
    if (windows.size() < kReferenceWindows || !ladder_open()) {
      windows.push_back(RunWindow(frontend->get(), in, &cursor, &out));
    }
    if (!ladder_open()) continue;
    // Host stalls only ever make a step look worse: a failing step is run
    // again, at most twice, and passes if any attempt does.
    const double rate = kLadder[next_rate++];
    StepOutput o;
    for (int attempt = 0;
         attempt < 3 && (attempt == 0 || !StepPasses(o.step, limits));
         ++attempt) {
      o = RunStep(frontend->get(), in, rate, kLadderStepSeconds, &cursor,
                  &out);
    }
    steps.push_back(o.step);
    std::vector<double> lag = o.lag_us;
    std::printf("  ladder %7.0f/s: p99 %9.1f us, failed %.4f, backlog %s, "
                "generator lag p99 %.1f us%s\n",
                rate, o.step.p99_us, o.step.fail_ratio,
                o.step.backlog_grew ? "grows" : "flat",
                Quantile(&lag, 0.99), o.step.valid ? "" : " (invalid)");
  }
  if (overstayed) {
    std::printf("  ladder ended: the run passed %.0f s at %zu of %zu rungs\n",
                kMaxRunSeconds, next_rate, std::size(kLadder));
  } else if (LadderDone(steps, limits)) {
    std::printf("  ladder ended: two consecutive failing steps (%.0f/s, "
                "%.0f/s)\n",
                steps[steps.size() - 2].rate, steps.back().rate);
  } else {
    std::printf("  ladder ended: past its top rung (%.0f/s); the front-end's "
                "limit lies higher than the ladder reaches\n",
                steps.back().rate);
  }
  out.Check(!overstayed, "the serve run overstayed its time limit before the "
                         "ladder ended; the run is invalid");
  if (!out.correct) return out;
  const double max_rps = MaxSustainedRate(steps, limits);
  out.values["throughput_per_s"] = max_rps;
  Report("predict_max_rps", max_rps, "1/s",
         "(p99 <= 20 ms, failed+shed <= 1%, backlog flat)");

  const Reference ref = Summarize(windows, &out);
  // A shed is the front-end's labelled answer to overload, which a host
  // stall of a few tens of milliseconds can cause at the reference rate;
  // it counts as a miss in predict_fail_ratio and the latencies. A failed
  // operation is a request that got no answer at all.
  out.attempted = ref.attempted;
  out.failed = ref.unresolved;
  out.values["latency_p50_us"] = ref.p50_us;
  out.values["latency_p99_us"] = ref.p99_us;
  out.values["ok_ratio"] = 1.0 - ref.fail_ratio;

  if (args.trace) {
    SetTracing(true);
    std::vector<Window> traced_windows;
    while (traced_windows.size() < kReferenceWindows) {
      traced_windows.push_back(RunWindow(frontend->get(), in, &cursor, &out));
    }
    SetTracing(false);
    const Reference traced = Summarize(traced_windows, &out);
    out.values["trace.overhead_ratio"] = traced.p50_us / ref.p50_us;
    Report("trace.overhead_ratio", out.values["trace.overhead_ratio"], "x",
           "(traced / untraced reference p50)");
    out.values["serve.generator_lag_p99_us"] = ref.lag_p99_us;
    ReportLayerCounters(before, ServeCounters::Read(), &out);
    MeasurePredictKernels(*in.trained.predictor,
                          in.trained.suite.d3.telemetry.runs(), &out);
    MeasureSetupStages(args.seed, &out);
  }
  (*frontend)->Shutdown();
  return out;
}

}  // namespace perfbench

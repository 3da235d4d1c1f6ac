// Copyright 2026 The rvar Authors.
//
// The benchmark's span recorder. Spans are taken in the benchmark's own
// files around each call into a layer's public function (sim, core, ml,
// serve, io); nothing inside the library is instrumented.
// Each span records its name, thread, parent span, start and end. Every
// span feeds an in-memory per-name duration list (for the per-layer
// totals and percentiles); the first kMaxRawSpansPerThread spans of each
// thread are also kept whole and written to a JSON-lines file by
// DumpSpans() when the run ends. With tracing disabled a Span costs one
// relaxed load.

#ifndef RVAR_PERFBENCH_TRACE_H_
#define RVAR_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Turns span recording on or off for the whole process.
void SetTracing(bool enabled);

/// RAII span. `name` must be a string literal ("layer.function"): spans
/// are grouped by its address.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Durations (seconds) of every span named `name` recorded so far, over
/// all threads. Call only while no thread is recording.
std::vector<double> SpanSeconds(const char* name);

/// Writes the kept spans plus a per-name summary to `path` as JSON lines.
/// Call only while no thread is recording. False if the file cannot be
/// written.
bool DumpSpans(const std::string& path);

}  // namespace perfbench

#endif  // RVAR_PERFBENCH_TRACE_H_

// Copyright 2026 The rvar Authors.
//
// The four benchmark workloads. Each takes its seed and run length from
// `args`, builds its inputs from the seed, measures for about
// `args.seconds`, checks the library's outputs, and returns the metrics it
// measured (end-to-end always; per-layer when args.trace is set).
// perfbench/plan.json records why each workload exists and which metrics
// each layer is expected to move.

#ifndef RVAR_PERFBENCH_WORKLOADS_H_
#define RVAR_PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace perfbench {

/// The paper pipeline on the canonical suite: BuildStudySuite -> Train ->
/// Evaluate(D3), as a batch job.
Outcome RunStudy(const Args& args);

/// Open-loop shape predictions through serve::ServingFrontend::Submit.
Outcome RunServe(const Args& args);

/// A skewed stream of core::ShapeService::Observe calls with interleaved
/// reads, partitioned across threads.
Outcome RunIngest(const Args& args);

/// io::RecoveryManager: bootstrap, log with checkpoints, crash, recover.
Outcome RunDurable(const Args& args);

}  // namespace perfbench

#endif  // RVAR_PERFBENCH_WORKLOADS_H_

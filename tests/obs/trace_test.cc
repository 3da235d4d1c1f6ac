// Tests for trace spans: RAII timing, parent/child nesting through the
// thread-local span stack, ring-buffer bounding, the sampling switch, and
// the phase spans of a recovery pass.

#include "obs/trace.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "gtest/gtest.h"
#include "io/recovery.h"
#include "sim/telemetry.h"
#include "test_util.h"

namespace rvar {
namespace obs {
namespace {

TEST(ScopedSpan, RecordsNameAndDuration) {
  Tracer tracer;
  { ScopedSpan span("work", &tracer); }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), "work");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
  EXPECT_GE(spans[0].start_seconds, 0.0);
}

TEST(ScopedSpan, ChildrenNestUnderParents) {
  Tracer tracer;
  {
    ScopedSpan outer("outer", &tracer);
    {
      ScopedSpan inner("inner", &tracer);
      { ScopedSpan leaf("leaf", &tracer); }
    }
  }
  // Completion order: leaf, inner, outer.
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(std::string(spans[0].name), "leaf");
  EXPECT_EQ(std::string(spans[1].name), "inner");
  EXPECT_EQ(std::string(spans[2].name), "outer");
  EXPECT_EQ(spans[1].parent_id, spans[2].span_id);  // inner under outer
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);  // leaf under inner
  EXPECT_EQ(spans[2].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[0].depth, 2);
  // A child's interval lies inside its parent's.
  EXPECT_GE(spans[0].start_seconds, spans[1].start_seconds);
  EXPECT_LE(spans[0].duration_seconds, spans[1].duration_seconds);
}

TEST(ScopedSpan, SequentialSpansAreSiblings) {
  Tracer tracer;
  { ScopedSpan a("a", &tracer); }
  { ScopedSpan b("b", &tracer); }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_NE(spans[0].span_id, spans[1].span_id);
}

TEST(Tracer, RingKeepsNewestAndCountsDropped) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("s", &tracer);
  }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.TotalRecorded(), 10);
  EXPECT_EQ(tracer.Dropped(), 6);
  // The survivors are the last four, oldest first.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].span_id, spans[i - 1].span_id);
  }
}

TEST(Tracer, ClearEmptiesTheRing) {
  Tracer tracer(4);
  { ScopedSpan span("s", &tracer); }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.TotalRecorded(), 0);
}

TEST(Sampling, SpansSkipWhenOff) {
  Tracer tracer;
  SetSampling(false);
  {
    ScopedSpan span("invisible", &tracer);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  SetSampling(true);
  { ScopedSpan span("visible", &tracer); }
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(Sampling, InactiveParentMakesChildrenRoots) {
  // A span opened while sampling is off never lands on the stack, so a
  // child opened after re-enabling becomes a root — not a dangling child.
  Tracer tracer;
  SetSampling(false);
  {
    ScopedSpan outer("off", &tracer);
    SetSampling(true);
    { ScopedSpan inner("on", &tracer); }
  }
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), "on");
  EXPECT_EQ(spans[0].parent_id, 0u);
}

// Recover reports its phases as children of the recovery/recover span:
// restoring the snapshot, scanning the WAL, replaying it, and rotating to
// a fresh segment.
TEST(RecoverySpans, PhasesNestUnderTheRecoverSpan) {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(4);
  for (int gid = 0; gid < 6; ++gid) {
    const double sigma = gid % 2 == 0 ? 0.05 : 0.4;
    for (int i = 0; i < 30; ++i) {
      sim::JobRun run;
      run.group_id = gid;
      run.runtime_seconds = 100.0 * std::max(0.1, rng.Normal(1.0, sigma));
      store.Add(run);
    }
    medians.Set(gid, 100.0);
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 2;
  config.min_support = 10;
  auto library = core::ShapeLibrary::Build(store, medians, config);
  ASSERT_TRUE(library.ok()) << library.status().ToString();

  const ScopedTempDir temp;
  {
    auto manager = io::RecoveryManager::Open(temp.path());
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(*std::move(library)).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(manager->Observe(i % 6, 1.0 + 0.05 * i).ok());
    }
  }
  auto manager = io::RecoveryManager::Open(temp.path());
  ASSERT_TRUE(manager.ok());
  SetSampling(true);
  Tracer::Default().Clear();
  ASSERT_TRUE(manager->Recover().ok());
  const std::vector<SpanRecord> spans = Tracer::Default().Snapshot();

  const auto find = [&](const std::string& name) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const SpanRecord& s) { return s.name == name; });
  };
  const auto recover = find("recovery/recover");
  ASSERT_NE(recover, spans.end());
  double children_seconds = 0.0;
  for (const char* phase :
       {"recovery/restore_snapshot", "recovery/scan_wal", "recovery/replay",
        "recovery/rotate_wal"}) {
    const auto child = find(phase);
    ASSERT_NE(child, spans.end()) << phase;
    EXPECT_EQ(child->parent_id, recover->span_id) << phase;
    EXPECT_EQ(child->depth, recover->depth + 1) << phase;
    EXPECT_GE(child->start_seconds, recover->start_seconds) << phase;
    children_seconds += child->duration_seconds;
  }
  EXPECT_LE(children_seconds, recover->duration_seconds);
}

}  // namespace
}  // namespace obs
}  // namespace rvar

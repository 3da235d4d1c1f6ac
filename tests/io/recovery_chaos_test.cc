// Kill-and-restart chaos test (the PR's acceptance criterion): run a
// serving pipeline, checkpoint mid-stream, "crash" it, corrupt the WAL
// tail and the newest snapshot generation, then Recover() and require the
// rebuilt state to be bit-identical to a twin pipeline that never crashed.
// Labeled `chaos` in ctest; intended to also run under -DRVAR_SANITIZE=ON.

#include "io/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "test_util.h"

namespace rvar {
namespace io {
namespace {

core::ShapeLibrary MakeLibrary(uint64_t seed) {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(seed);
  int gid = 0;
  for (int g = 0; g < 6; ++g) {
    for (int family = 0; family < 3; ++family) {
      const double median = rng.Uniform(50.0, 500.0);
      for (int i = 0; i < 30; ++i) {
        const double sigma = family == 0 ? 0.03 : (family == 1 ? 0.5 : 0.2);
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds =
            median * std::max(0.1, rng.Normal(1.0, sigma));
        store.Add(run);
      }
      medians.Set(gid, median);
      ++gid;
    }
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 3;
  config.min_support = 10;
  auto library = core::ShapeLibrary::Build(store, medians, config);
  EXPECT_TRUE(library.ok()) << library.status().ToString();
  return *std::move(library);
}

struct Observation {
  int group_id;
  double value;
};

// The full observation stream both pipelines see, in order. Seq i+1 is
// stream[i].
std::vector<Observation> MakeStream(int n, uint64_t seed) {
  std::vector<Observation> stream;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    stream.push_back({static_cast<int>(rng.UniformInt(0, 9)),
                      rng.Uniform(0.2, 5.0)});
  }
  return stream;
}

// WAL payload framing must match recovery.cc's EncodeObservation.
std::string FrameObservation(uint64_t seq, const Observation& obs) {
  BinaryWriter w;
  w.PutU64(seq);
  w.PutI32(obs.group_id);
  w.PutDouble(obs.value);
  return w.TakeBytes();
}

void ExpectStatesBitIdentical(const ServingState& reference,
                              const ServingState& recovered) {
  ASSERT_NE(reference.library, nullptr);
  ASSERT_NE(recovered.library, nullptr);
  EXPECT_EQ(EncodeShapeLibrary(*reference.library),
            EncodeShapeLibrary(*recovered.library))
      << "recovered library differs from the never-crashed run";
  ASSERT_EQ(recovered.trackers.size(), reference.trackers.size());
  for (const auto& [gid, tracker] : reference.trackers) {
    auto it = recovered.trackers.find(gid);
    ASSERT_NE(it, recovered.trackers.end()) << "group " << gid;
    EXPECT_EQ(it->second.count(), tracker.count()) << "group " << gid;
    EXPECT_EQ(it->second.num_clamped(), tracker.num_clamped());
    // Exact double equality: replay must reproduce the arithmetic, not
    // approximate it.
    EXPECT_EQ(it->second.log_likelihood(), tracker.log_likelihood())
        << "group " << gid;
    EXPECT_EQ(it->second.MostLikely(), tracker.MostLikely());
  }
  // The per-group quantile sketches must survive the crash bit-for-bit
  // too: identical wire encodings, not merely close quantiles.
  ASSERT_EQ(recovered.sketches.size(), reference.sketches.size());
  for (const auto& [gid, sketch] : reference.sketches) {
    auto it = recovered.sketches.find(gid);
    ASSERT_NE(it, recovered.sketches.end()) << "group " << gid;
    EXPECT_EQ(EncodeKllSketch(it->second), EncodeKllSketch(sketch))
        << "group " << gid << " sketch diverged across recovery";
    EXPECT_EQ(it->second.n(), sketch.n()) << "group " << gid;
  }
}

class RecoveryChaosTest : public ::testing::Test {
 protected:
  const ScopedTempDir temp_;
  const std::string root_ = temp_.path();
};

TEST_F(RecoveryChaosTest, KillAndRestartMatchesNeverCrashedRun) {
  constexpr int kObservations = 40;  // logged before the crash
  const core::ShapeLibrary library = MakeLibrary(7);
  const std::vector<Observation> stream =
      MakeStream(kObservations + 2, 13);
  RecoveryManager::Options options;
  options.keep_snapshots = 2;

  // --- Reference pipeline: never crashes, sees the whole stream. -----------
  auto reference = RecoveryManager::Open(root_ + "/reference", options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->Bootstrap(library).ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(
        reference->Observe(stream[i].group_id, stream[i].value).ok());
    if (i + 1 == kObservations / 2) {
      ASSERT_TRUE(reference->Checkpoint().ok());
    }
  }

  // --- Victim pipeline: same library, same stream prefix, then killed. ----
  const std::string dir = root_ + "/victim";
  uint64_t live_segment = 0;
  {
    auto victim = RecoveryManager::Open(dir, options);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_TRUE(victim->Bootstrap(library).ok());
    for (int i = 0; i < kObservations; ++i) {
      ASSERT_TRUE(
          victim->Observe(stream[i].group_id, stream[i].value).ok());
      if (i + 1 == kObservations / 2) {
        ASSERT_TRUE(victim->Checkpoint().ok());
      }
    }
    live_segment = 2;  // Bootstrap -> seg 1, mid-stream Checkpoint -> seg 2
    EXPECT_EQ(victim->generation(), 2);
    // The victim goes out of scope here with no clean shutdown: every
    // Append already hit fsync, which is all the durability it gets.
  }

  const std::string wal_path = dir + "/wal-000002";
  const std::string snap_path = dir + "/snapshot-000002";
  ASSERT_TRUE(std::filesystem::exists(wal_path));
  ASSERT_TRUE(std::filesystem::exists(snap_path));

  // --- Corruption: a hostile filesystem finishes the crash. ---------------
  // 1. The last two observations reach the WAL out of order, and one
  //    earlier record is delivered twice.
  {
    const uint64_t size = std::filesystem::file_size(wal_path);
    auto writer =
        WalWriter::OpenForAppend(wal_path, live_segment, size, true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer
            ->Append(FrameObservation(kObservations + 2,
                                      stream[kObservations + 1]))
            .ok());
    ASSERT_TRUE(
        writer
            ->Append(FrameObservation(kObservations + 1,
                                      stream[kObservations]))
            .ok());
    ASSERT_TRUE(writer
                    ->Append(FrameObservation(kObservations,
                                              stream[kObservations - 1]))
                    .ok());  // duplicate of the last pre-crash record
  }
  // 2. A torn half-written record at the tail.
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out << std::string("\x40\x00\x00\x00torn", 8);
  }
  // 3. The newest snapshot generation takes a bit flip.
  {
    auto bytes = ReadFileToString(snap_path);
    ASSERT_TRUE(bytes.ok());
    const sim::StorageFaultPlan faults(99);
    ASSERT_TRUE(
        AtomicWriteFile(snap_path, faults.FlipBits(*bytes, 3)).ok());
  }

  // --- Restart and recover. -----------------------------------------------
  auto revived = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_TRUE(revived->HasState());
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exact per-reason accounting of everything the recovery repaired.
  EXPECT_EQ(report->snapshot_generation, 1);  // gen 2 was corrupt
  EXPECT_EQ(report->num_snapshots_discarded, 1);
  EXPECT_EQ(report->Count(RecoveryReason::kSnapshotCorrupt), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalReordered), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalDuplicate), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalTornTail), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalStale), 0);
  EXPECT_EQ(report->Count(RecoveryReason::kWalBadPayload), 0);
  EXPECT_EQ(report->wal_records_applied, kObservations + 2);
  EXPECT_GT(report->wal_bytes_truncated, 0);
  EXPECT_EQ(revived->last_sequence(),
            static_cast<uint64_t>(kObservations + 2));

  ExpectStatesBitIdentical(reference->state(), revived->state());

  // The revived pipeline keeps working: observe, checkpoint, recover again.
  ASSERT_TRUE(revived->Observe(3, 1.25).ok());
  ASSERT_TRUE(revived->Checkpoint().ok());
  auto reopened = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  auto clean = reopened->Recover();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->num_snapshots_discarded, 0);
  ExpectStatesBitIdentical(revived->state(), reopened->state());
}

TEST_F(RecoveryChaosTest, AllSnapshotsCorruptIsAnErrorNotACrash) {
  const std::string dir = root_ + "/doomed";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(3)).ok());
  }
  const std::string snap = dir + "/snapshot-000001";
  auto bytes = ReadFileToString(snap);
  ASSERT_TRUE(bytes.ok());
  const sim::StorageFaultPlan faults(5);
  ASSERT_TRUE(AtomicWriteFile(snap, faults.FlipBits(*bytes, 5)).ok());

  auto revived = RecoveryManager::Open(dir);
  ASSERT_TRUE(revived.ok());
  auto report = revived->Recover();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError)
      << report.status().ToString();
}

TEST_F(RecoveryChaosTest, EmptyDirectoryRecoverIsNotFound) {
  auto manager = RecoveryManager::Open(root_ + "/fresh");
  ASSERT_TRUE(manager.ok());
  EXPECT_FALSE(manager->HasState());
  auto report = manager->Recover();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(RecoveryChaosTest, PruningKeepsOnlyConfiguredGenerations) {
  RecoveryManager::Options options;
  options.keep_snapshots = 2;
  const std::string dir = root_ + "/pruned";
  auto manager = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager->Bootstrap(MakeLibrary(9)).ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(manager->Observe(i, 1.0 + 0.1 * i).ok());
    }
    ASSERT_TRUE(manager->Checkpoint().ok());
  }
  EXPECT_EQ(manager->generation(), 5);
  int snapshots = 0;
  int segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    snapshots += name.rfind("snapshot-", 0) == 0 ? 1 : 0;
    segments += name.rfind("wal-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(snapshots, 2);  // generations 4 and 5
  EXPECT_LE(segments, 2);   // live segment + at most one replay segment
  // The retained files still recover to the live state.
  auto reopened = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Recover().ok());
  ExpectStatesBitIdentical(manager->state(), reopened->state());
}

// Snapshot and WAL file names in `dir`, sorted.
std::vector<std::string> StateFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Observe applies ShapeService's input policy before logging: what the
// service refuses never reaches the WAL, and a hand-framed WAL record that
// carries it is counted as a bad payload on replay, not applied.
TEST_F(RecoveryChaosTest, ObserveAndReplayApplyTheServiceInputPolicy) {
  const std::string dir = root_ + "/policy";
  const std::string wal_path = dir + "/wal-000001";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  uint64_t wal_bytes = 0;
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(5)).ok());
    ASSERT_TRUE(manager->Observe(2, 1.5).ok());
    wal_bytes = std::filesystem::file_size(wal_path);
    for (const Observation& bad : std::vector<Observation>{
             {2, nan}, {2, inf}, {2, -inf}, {-1, 1.0}}) {
      const Status status = manager->Observe(bad.group_id, bad.value);
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    }
    EXPECT_EQ(std::filesystem::file_size(wal_path), wal_bytes);
    EXPECT_EQ(manager->last_sequence(), 1u);
    const ServingState state = manager->state();
    ASSERT_EQ(state.trackers.size(), 1u);
    EXPECT_EQ(state.trackers.at(2).count(), 1);
  }
  {
    auto writer = WalWriter::OpenForAppend(wal_path, 1, wal_bytes, true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(FrameObservation(2, {2, nan})).ok());
    ASSERT_TRUE(writer->Append(FrameObservation(3, {-3, 1.0})).ok());
    ASSERT_TRUE(writer->Append(FrameObservation(4, {4, 2.0})).ok());
  }
  auto revived = RecoveryManager::Open(dir);
  ASSERT_TRUE(revived.ok());
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Count(RecoveryReason::kWalBadPayload), 2);
  EXPECT_EQ(report->wal_records_applied, 2);
  EXPECT_EQ(revived->last_sequence(), 4u);
  const ServingState state = revived->state();
  ASSERT_EQ(state.trackers.size(), 2u);
  EXPECT_EQ(state.trackers.at(2).count(), 1);
  EXPECT_EQ(state.trackers.at(4).count(), 1);
  EXPECT_EQ(state.sketches.at(2).n(), 1);
}

// A directory written by the retired per-tracker layout (kServingState)
// is refused whole, and its only generation stays on disk untouched.
TEST_F(RecoveryChaosTest, OldServingStateLayoutIsRefusedAndKept) {
  const std::string dir = root_ + "/old_layout";
  std::filesystem::create_directories(dir);
  SnapshotWriter snap(PayloadKind::kServingState);
  {
    BinaryWriter w;
    w.PutU64(0);        // watermark
    w.PutU64(1);        // next WAL segment
    w.PutDouble(1.0);   // decay
    w.PutDouble(1e-6);  // pmf_floor
    w.PutU64(0);        // tracker count
    snap.AddRecord(w.bytes());
  }
  snap.AddRecord(EncodeShapeLibrary(MakeLibrary(3)));
  const std::string path = dir + "/snapshot-000001";
  const std::string image = snap.Finish();
  ASSERT_TRUE(AtomicWriteFile(path, image).ok());

  auto manager = RecoveryManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager->HasState());
  auto report = manager->Recover();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError)
      << report.status().ToString();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << "the old generation was deleted";
  EXPECT_EQ(*bytes, image);
  EXPECT_FALSE(manager->Observe(0, 1.0).ok());  // nothing went live
}

// A snapshot written under other decay / pmf_floor / sketch_k options
// fails Recover with FailedPrecondition and deletes nothing — not even a
// damaged newer generation; the matching options then recover it.
TEST_F(RecoveryChaosTest, OptionMismatchIsFailedPreconditionAndDeletesNothing) {
  const std::string dir = root_ + "/mismatch";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(4)).ok());
    for (const Observation& obs : MakeStream(12, 8)) {
      ASSERT_TRUE(manager->Observe(obs.group_id, obs.value).ok());
    }
    ASSERT_TRUE(manager->Checkpoint().ok());
  }
  // A torn generation 3 that a successful Recover would delete.
  ASSERT_TRUE(AtomicWriteFile(dir + "/snapshot-000003", "RVSN torn").ok());
  const std::vector<std::string> files = StateFiles(dir);

  RecoveryManager::Options decay;
  decay.decay = 0.9;
  RecoveryManager::Options floor;
  floor.pmf_floor = 1e-5;
  RecoveryManager::Options sketch_k;
  sketch_k.sketch_k = 100;
  for (const RecoveryManager::Options& options : {decay, floor, sketch_k}) {
    auto manager = RecoveryManager::Open(dir, options);
    ASSERT_TRUE(manager.ok());
    auto report = manager->Recover();
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
        << report.status().ToString();
    EXPECT_EQ(StateFiles(dir), files);
  }

  auto manager = RecoveryManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  auto report = manager->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->snapshot_generation, 2);
  EXPECT_EQ(report->num_snapshots_discarded, 1);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-000003"));
}

// A stray file whose numeric suffix does not fit in int64_t is a malformed
// name like any other: Open ignores it, so it neither pushes the segment
// numbering past itself nor shows up in Recover as a phantom corrupt
// segment, and it stays on disk untouched.
TEST_F(RecoveryChaosTest, OverlongSegmentSuffixIsIgnored) {
  const std::string dir = root_ + "/overlong";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(6)).ok());
    ASSERT_TRUE(manager->Observe(1, 1.5).ok());
  }
  const std::string stray = dir + "/wal-99999999999999999999";
  ASSERT_TRUE(AtomicWriteFile(stray, "not a segment").ok());

  auto revived = RecoveryManager::Open(dir);
  ASSERT_TRUE(revived.ok());
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Count(RecoveryReason::kWalSegmentCorrupt), 0);
  EXPECT_EQ(report->num_wal_segments_scanned, 1);
  EXPECT_EQ(report->wal_records_applied, 1);
  // Bootstrap wrote wal-000001; the post-recovery segment is the next id.
  EXPECT_EQ(StateFiles(dir),
            (std::vector<std::string>{"snapshot-000001", "wal-000001",
                                      "wal-000002",
                                      "wal-99999999999999999999"}));
  auto stray_bytes = ReadFileToString(stray);
  ASSERT_TRUE(stray_bytes.ok());
  EXPECT_EQ(*stray_bytes, "not a segment");
}

// Recover reads only the WAL the restored snapshot does not cover: a torn
// tail in a segment the newest generation covers is left on disk as it
// is, and healed only when a fallback to an older generation needs that
// segment.
TEST_F(RecoveryChaosTest, CoveredSegmentsAreSkippedUntilAFallbackNeedsThem) {
  constexpr int kPerSegment = 12;
  const core::ShapeLibrary library = MakeLibrary(11);
  const std::vector<Observation> stream = MakeStream(2 * kPerSegment, 17);

  // Reference: never crashes. Bootstrap -> gen 1 + wal-000001; the
  // checkpoint after the first half -> gen 2 + wal-000002.
  auto reference = RecoveryManager::Open(root_ + "/reference");
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->Bootstrap(library).ok());
  const std::string dir = root_ + "/victim";
  {
    auto victim = RecoveryManager::Open(dir);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(victim->Bootstrap(library).ok());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(reference->Observe(stream[i].group_id, stream[i].value)
                      .ok());
      ASSERT_TRUE(victim->Observe(stream[i].group_id, stream[i].value).ok());
      if (i + 1 == kPerSegment) {
        ASSERT_TRUE(reference->Checkpoint().ok());
        ASSERT_TRUE(victim->Checkpoint().ok());
      }
    }
  }

  // Tear the tail of wal-000001, which generation 2 covers.
  const std::string covered = dir + "/wal-000001";
  const uint64_t intact_size = std::filesystem::file_size(covered);
  {
    std::ofstream out(covered, std::ios::binary | std::ios::app);
    out << std::string("\x40\x00\x00\x00torn", 8);
  }
  auto torn_bytes = ReadFileToString(covered);
  ASSERT_TRUE(torn_bytes.ok());

  {
    auto revived = RecoveryManager::Open(dir);
    ASSERT_TRUE(revived.ok());
    auto report = revived->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->snapshot_generation, 2);
    EXPECT_EQ(report->num_wal_segments_scanned, 1);  // wal-000002 only
    EXPECT_EQ(report->wal_records_applied, kPerSegment);
    EXPECT_EQ(report->Count(RecoveryReason::kWalTornTail), 0);
    EXPECT_EQ(report->Count(RecoveryReason::kWalStale), 0);
    EXPECT_EQ(report->wal_bytes_truncated, 0);
    auto after = ReadFileToString(covered);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *torn_bytes) << "a covered segment was rewritten";
    ExpectStatesBitIdentical(reference->state(), revived->state());
  }

  // Generation 2 rots: the fallback to generation 1 needs wal-000001, so
  // it scans it, reports and truncates the torn tail, and replays it.
  const std::string snap2 = dir + "/snapshot-000002";
  auto snap_bytes = ReadFileToString(snap2);
  ASSERT_TRUE(snap_bytes.ok());
  const sim::StorageFaultPlan faults(23);
  ASSERT_TRUE(AtomicWriteFile(snap2, faults.FlipBits(*snap_bytes, 3)).ok());
  auto fallback = RecoveryManager::Open(dir);
  ASSERT_TRUE(fallback.ok());
  auto report = fallback->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->snapshot_generation, 1);
  EXPECT_EQ(report->Count(RecoveryReason::kSnapshotCorrupt), 1);
  // wal-000001, wal-000002 and the empty wal-000003 the first Recover
  // rotated to.
  EXPECT_EQ(report->num_wal_segments_scanned, 3);
  EXPECT_EQ(report->Count(RecoveryReason::kWalTornTail), 1);
  EXPECT_EQ(report->wal_bytes_truncated, 8);
  EXPECT_EQ(report->wal_records_applied, 2 * kPerSegment);
  EXPECT_EQ(std::filesystem::file_size(covered), intact_size);
  ExpectStatesBitIdentical(reference->state(), fallback->state());
}

// Recover skips segments below the restored image's first post-snapshot
// segment, so the segments it writes must never be numbered below it,
// even when the WAL files that would have pushed Open's numbering past it
// are gone: observations logged after such a recovery survive the next.
TEST_F(RecoveryChaosTest, LostSegmentsDoNotRenumberBelowTheSnapshot) {
  const std::string dir = root_ + "/lost";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(2)).ok());  // wal-000001
  }
  for (int i = 0; i < 2; ++i) {  // each Recover rotates: wal-000002, -03
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Recover().ok());
  }
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Recover().ok());  // wal-000004
    ASSERT_TRUE(manager->Checkpoint().ok());  // gen 2 replays from wal-000005
  }
  for (const std::string& name : StateFiles(dir)) {
    if (name.rfind("wal-", 0) == 0) std::filesystem::remove(dir + "/" + name);
  }
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    auto report = manager->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->snapshot_generation, 2);
    ASSERT_TRUE(manager->Observe(4, 2.5).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/wal-000005"));
  auto manager = RecoveryManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  auto report = manager->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->wal_records_applied, 1);
  EXPECT_EQ(manager->state().trackers.at(4).count(), 1);
}

// A checkpoint that fails halfway must leave every observation logged
// after it replayable. A directory where the next WAL segment or the next
// snapshot generation goes makes the rotation or the image write fail;
// the manager keeps taking observations, crashes, the obstacle goes, and
// Recover falls back to generation 1 and replays all of them.
TEST_F(RecoveryChaosTest, FailedCheckpointLosesNoLaterObservation) {
  const core::ShapeLibrary library = MakeLibrary(31);
  const std::vector<Observation> stream = MakeStream(20, 37);
  auto reference = RecoveryManager::Open(root_ + "/reference");
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->Bootstrap(library).ok());
  for (const Observation& obs : stream) {
    ASSERT_TRUE(reference->Observe(obs.group_id, obs.value).ok());
  }
  for (const char* obstacle : {"wal-000002", "snapshot-000002"}) {
    SCOPED_TRACE(obstacle);
    const std::string dir = root_ + "/before-" + obstacle;
    {
      auto victim = RecoveryManager::Open(dir);
      ASSERT_TRUE(victim.ok());
      ASSERT_TRUE(victim->Bootstrap(library).ok());  // gen 1, wal-000001
      for (size_t i = 0; i < stream.size(); ++i) {
        if (i == stream.size() / 2) {
          ASSERT_TRUE(std::filesystem::create_directory(dir + "/" + obstacle));
          EXPECT_FALSE(victim->Checkpoint().ok());
        }
        ASSERT_TRUE(victim->Observe(stream[i].group_id, stream[i].value).ok());
      }
    }
    std::filesystem::remove(dir + "/" + obstacle);
    auto revived = RecoveryManager::Open(dir);
    ASSERT_TRUE(revived.ok());
    auto report = revived->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->snapshot_generation, 1);
    EXPECT_EQ(report->wal_records_applied,
              static_cast<int64_t>(stream.size()));
    ExpectStatesBitIdentical(reference->state(), revived->state());
  }
}

// The canonical kShapeServiceState image a recovered manager holds: the
// service-state record of the generation its next Checkpoint writes.
std::string CheckpointedServiceState(RecoveryManager* manager) {
  EXPECT_TRUE(manager->Checkpoint().ok());
  auto bytes = ReadFileToString(manager->SnapshotPath(manager->generation()));
  EXPECT_TRUE(bytes.ok());
  auto reader = SnapshotReader::Open(*std::move(bytes),
                                     PayloadKind::kDurableState);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto record = reader->Record(2);
  EXPECT_TRUE(record.ok());
  return std::string(*record);
}

// Replay applies each shard's records in a parallel region. Duplicated,
// reordered and policy-rejected records in different shards must leave
// the same service image and the same report at every thread count, and
// the image must equal that of a service at 1, 4 or 16 shards fed the
// surviving records in sequence order. Labeled chaos and concurrency.
class RecoveryParallelReplayTest : public ::testing::Test {
 protected:
  // Restores the default pool width even when an assertion ends the test
  // early, so no forced width leaks into later tests.
  void TearDown() override { SetParallelThreads(0); }
};

TEST_F(RecoveryParallelReplayTest, ReplayIsIdenticalAtAnyThreadCount) {
  const ScopedTempDir temp;
  const core::ShapeLibrary library = MakeLibrary(21);
  const std::vector<Observation> stream = MakeStream(40, 29);

  // Four groups owned by four different shards of the manager's service.
  auto probe = core::ShapeService::Make(&library);
  ASSERT_TRUE(probe.ok());
  std::vector<int> groups;
  std::vector<size_t> shards;
  for (int gid = 0; groups.size() < 4; ++gid) {
    const size_t shard = (*probe)->ShardIndexFor(gid);
    if (std::find(shards.begin(), shards.end(), shard) == shards.end()) {
      groups.push_back(gid);
      shards.push_back(shard);
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const uint64_t n = stream.size();
  // The hand-framed tail, in arrival order.
  const std::vector<std::pair<uint64_t, Observation>> tail = {
      {n + 1, {groups[0], 1.1}},
      {n + 3, {groups[1], 2.0}},
      {n + 2, {groups[2], 0.7}},  // reordered
      {n + 1, {groups[0], 1.1}},  // duplicate
      {n + 4, {groups[3], nan}},  // rejected: non-finite runtime
      {n + 5, {-3, 1.0}},         // rejected: negative group id
      {n + 6, {groups[1], 3.0}},
  };
  // What replay applies, in sequence order.
  std::vector<Observation> expected = stream;
  expected.push_back({groups[0], 1.1});
  expected.push_back({groups[2], 0.7});
  expected.push_back({groups[1], 2.0});
  expected.push_back({groups[1], 3.0});

  const std::string source = temp.Path("source");
  {
    auto manager = RecoveryManager::Open(source);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(library).ok());
    for (const Observation& obs : stream) {
      ASSERT_TRUE(manager->Observe(obs.group_id, obs.value).ok());
    }
  }
  {
    const std::string wal = source + "/wal-000001";
    auto writer = WalWriter::OpenForAppend(
        wal, 1, std::filesystem::file_size(wal), true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& [seq, obs] : tail) {
      ASSERT_TRUE(writer->Append(FrameObservation(seq, obs)).ok());
    }
  }

  std::string first_image;
  RecoveryReport first;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const std::string dir = temp.Path("threads-" + std::to_string(threads));
    std::filesystem::copy(source, dir);
    SetParallelThreads(threads);
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    auto report = manager->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->Count(RecoveryReason::kWalReordered), 1);
    EXPECT_EQ(report->Count(RecoveryReason::kWalDuplicate), 1);
    EXPECT_EQ(report->Count(RecoveryReason::kWalBadPayload), 2);
    EXPECT_EQ(report->wal_records_applied,
              static_cast<int64_t>(expected.size()));
    EXPECT_EQ(manager->last_sequence(), n + 6);
    const std::string image = CheckpointedServiceState(&*manager);
    if (threads == 1) {
      first_image = image;
      first = *report;
      continue;
    }
    EXPECT_EQ(image, first_image);
    EXPECT_EQ(report->snapshot_generation, first.snapshot_generation);
    EXPECT_EQ(report->num_snapshots_discarded, first.num_snapshots_discarded);
    EXPECT_EQ(report->num_wal_segments_scanned,
              first.num_wal_segments_scanned);
    EXPECT_EQ(report->wal_records_applied, first.wal_records_applied);
    EXPECT_EQ(report->wal_bytes_truncated, first.wal_bytes_truncated);
    EXPECT_EQ(report->counts, first.counts);
  }

  for (int num_shards : {1, 4, 16}) {
    core::ShapeService::Options options;
    options.num_shards = num_shards;
    auto twin = core::ShapeService::Make(&library, options);
    ASSERT_TRUE(twin.ok());
    for (const Observation& obs : expected) {
      ASSERT_TRUE((*twin)->Observe(obs.group_id, obs.value).ok());
    }
    EXPECT_EQ(EncodeShapeServiceState(**twin), first_image)
        << num_shards << " shards";
  }
}

}  // namespace
}  // namespace io
}  // namespace rvar

// Copyright 2026 The rvar Authors.
//
// Crash-safe persistence for the serving state (DESIGN.md §7): the shape
// library plus one core::ShapeService holding the per-group trackers and
// sketches that accumulate streaming observations. RecoveryManager is a
// log-then-apply wrapper around that service: Observe() checks the input
// with the service's own policy, appends it to a checksummed WAL, then
// applies it; Checkpoint() writes a versioned snapshot generation
// atomically and rotates the WAL; Recover() rebuilds the service after a
// crash by restoring the newest intact snapshot generation and replaying
// the WAL tail through the same Observe — truncating torn writes, dropping
// duplicated/reordered/stale records, and reporting exact per-reason
// counts of everything it repaired (mirroring the TelemetryStore
// quarantine accounting).

#ifndef RVAR_IO_RECOVERY_H_
#define RVAR_IO_RECOVERY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace io {

/// \brief Why Recover() discarded or repaired something.
enum class RecoveryReason : int {
  kSnapshotCorrupt = 0,  ///< a snapshot generation failed validation
  kWalSegmentCorrupt,    ///< a segment header was unusable (whole file lost)
  kWalTornTail,          ///< a trailing partial record was truncated
  kWalCorruptRecord,     ///< a mid-file CRC mismatch dropped the rest
  kWalBadPayload,        ///< framed record held a malformed observation
  kWalDuplicate,         ///< same sequence number delivered twice
  kWalReordered,         ///< record arrived out of sequence order
  kWalStale,             ///< covered record inside a scanned segment
};
inline constexpr int kNumRecoveryReasons = 8;
const char* RecoveryReasonName(RecoveryReason reason);

/// \brief Exact accounting of one Recover() pass.
struct RecoveryReport {
  /// Snapshot generation restored; -1 if recovery started from nothing.
  int64_t snapshot_generation = -1;
  /// Snapshot generations that failed validation and were skipped.
  int num_snapshots_discarded = 0;
  /// Segments read: those at or above the restored image's first
  /// post-snapshot segment. Older segments hold only covered records and
  /// are neither read nor counted (nor their records as kWalStale).
  int num_wal_segments_scanned = 0;
  /// Observations replayed on top of the snapshot.
  int64_t wal_records_applied = 0;
  /// Bytes physically removed from torn or corrupt segment tails.
  int64_t wal_bytes_truncated = 0;
  std::array<int64_t, kNumRecoveryReasons> counts{};

  int64_t Count(RecoveryReason reason) const {
    return counts[static_cast<size_t>(reason)];
  }
  std::string ToString() const;
};

/// \brief A read-only copy of the recoverable serving state, built on
/// demand by RecoveryManager::state() from the service's exported state:
/// the shape library and, per tracked group, its tracker and its sketch.
struct ServingState {
  /// Owned by the RecoveryManager; valid while it lives. Null before
  /// Bootstrap()/Recover().
  const core::ShapeLibrary* library = nullptr;
  /// Ordered by group id. The trackers share one log theta table.
  std::map<int, core::OnlineShapeTracker> trackers;
  /// One bounded quantile sketch per tracked group, same keys as
  /// `trackers`.
  std::map<int, KllSketch> sketches;
};

/// \brief Owns a state directory of snapshot generations and WAL segments.
///
/// Lifecycle: Open() the directory, then either Bootstrap() a fresh
/// library (first boot) or Recover() existing state; afterwards Observe()
/// appends observations durably and Checkpoint() compacts the WAL into a
/// new snapshot generation. Files are `snapshot-<generation>` and
/// `wal-<segment id>`, both zero-padded to six digits; any other name,
/// including a numeric suffix too large for int64_t, is ignored.
class RecoveryManager {
 public:
  struct Options {
    /// The ShapeService's tracker decay / probability floor and sketch k
    /// (core::ShapeService::Options; the service's other options keep
    /// their defaults). A snapshot records the values it was written
    /// under, and Recover() refuses one written under other values with
    /// FailedPrecondition instead of mixing configurations.
    double decay = 1.0;
    double pmf_floor = 1e-6;
    int sketch_k = 200;
    /// Snapshot generations retained after a checkpoint (>= 1). Older
    /// generations and the WAL segments they would replay are pruned.
    int keep_snapshots = 2;
    /// fsync after every Append (the durability the torn-tail recovery
    /// test relies on); disable only for throughput benchmarks.
    bool sync_each_append = true;
  };

  /// Creates the directory if needed and scans it for existing files.
  static Result<RecoveryManager> Open(const std::string& dir,
                                      const Options& options);
  static Result<RecoveryManager> Open(const std::string& dir);

  RecoveryManager(RecoveryManager&&) = default;
  RecoveryManager& operator=(RecoveryManager&&) = default;

  /// True if the directory holds at least one snapshot generation.
  bool HasState() const { return !snapshot_generations_.empty(); }

  /// Installs a fresh library as the serving state and writes the first
  /// snapshot generation. Fails if the manager is already live.
  Status Bootstrap(core::ShapeLibrary library);

  /// Rebuilds the serving state from disk: newest intact snapshot
  /// generation plus the surviving WAL records of the segments it does
  /// not cover, replayed shard-parallel (the same state at any thread
  /// count). NotFound if the directory holds no snapshot; IOError if no
  /// generation can be restored; FailedPrecondition if the newest
  /// readable generation was written under other decay/pmf_floor/sketch_k
  /// options. Only generations whose bytes fail the container checks
  /// (short, torn, CRC) are deleted, and only once a generation has been
  /// restored; an intact image this build cannot use (another payload
  /// kind or version) is skipped and kept. WAL segments the restored
  /// generation covers are left on disk unread.
  Result<RecoveryReport> Recover();

  /// Checks the observation with the service's input policy
  /// (core::ShapeService::ValidateObservation: InvalidArgument for a
  /// negative id or a non-finite runtime, and nothing logged), durably
  /// logs it, then applies it to the service. Requires a live state.
  Status Observe(int group_id, double normalized_runtime);

  /// Rotates the WAL, writes the next snapshot generation atomically, and
  /// prunes generations/segments beyond keep_snapshots. On failure no
  /// kept generation covers a record logged afterwards.
  Status Checkpoint();

  /// A copy of the live state (library set after Bootstrap()/Recover()),
  /// built from the service's exported state on every call.
  ServingState state() const;

  /// Sequence number of the last observation logged or replayed.
  uint64_t last_sequence() const { return last_seq_; }
  int64_t generation() const { return latest_generation_; }
  const std::string& dir() const { return dir_; }

  /// Path of snapshot generation `gen` / WAL segment `segment` in `dir`
  /// (exposed for fault-injection tests).
  std::string SnapshotPath(int64_t gen) const;
  std::string WalPath(uint64_t segment) const;

 private:
  RecoveryManager(std::string dir, const Options& options)
      : dir_(std::move(dir)), options_(options) {}

  Status WriteSnapshot(int64_t generation, uint64_t next_wal_segment);
  Status RotateWal();
  void Prune();

  std::string dir_;
  Options options_;
  /// Declared before service_, which points into it: destroyed after it.
  std::unique_ptr<core::ShapeLibrary> library_;
  std::unique_ptr<core::ShapeService> service_;
  bool live_ = false;

  std::vector<int64_t> snapshot_generations_;  ///< ascending
  std::vector<uint64_t> wal_segments_;         ///< ascending
  /// generation -> id of the first WAL segment with post-snapshot
  /// observations (known for generations this process wrote or decoded).
  std::map<int64_t, uint64_t> first_segment_after_;

  int64_t latest_generation_ = 0;
  uint64_t next_segment_id_ = 1;
  uint64_t last_seq_ = 0;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_RECOVERY_H_

#include "io/recovery.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "obs/export.h"

namespace rvar {
namespace io {
namespace {

namespace fs = std::filesystem;

/// Cached handles into the process registry (obs/metrics.h). Recovery
/// reasons are mirrored into labeled counters so a fleet can alert on
/// corruption rates without parsing RecoveryReport strings.
struct RecoveryMetrics {
  rvar::obs::Counter* wal_appends_total;
  rvar::obs::Counter* wal_append_bytes_total;
  rvar::obs::Counter* checkpoints_total;
  rvar::obs::Counter* snapshot_bytes_total;
  rvar::obs::Counter* recover_total;
  rvar::obs::Counter* wal_records_replayed_total;
  rvar::obs::Counter* wal_bytes_truncated_total;
  rvar::obs::Counter* snapshots_discarded_total;
  rvar::obs::Histogram* checkpoint_latency;
  rvar::obs::Counter* reasons[kNumRecoveryReasons];

  static const RecoveryMetrics& Get() {
    static const RecoveryMetrics metrics = [] {
      rvar::obs::Registry& r = rvar::obs::Registry::Default();
      RecoveryMetrics m{
          r.GetCounter("recovery_wal_appends_total"),
          r.GetCounter("recovery_wal_append_bytes_total"),
          r.GetCounter("recovery_checkpoints_total"),
          r.GetCounter("recovery_snapshot_bytes_total"),
          r.GetCounter("recovery_recover_total"),
          r.GetCounter("recovery_wal_records_replayed_total"),
          r.GetCounter("recovery_wal_bytes_truncated_total"),
          r.GetCounter("recovery_snapshots_discarded_total"),
          r.GetHistogram("recovery_checkpoint_latency_seconds"),
          {}};
      for (int i = 0; i < kNumRecoveryReasons; ++i) {
        m.reasons[i] =
            r.GetCounter("recovery_reason_total", "reason",
                         RecoveryReasonName(static_cast<RecoveryReason>(i)));
      }
      return m;
    }();
    return metrics;
  }
};

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kWalPrefix[] = "wal-";

/// Parses the numeric suffix of "prefix-NNNNNN" names; -1 if malformed,
/// including a suffix too large for int64_t.
int64_t ParseSuffix(const std::string& name, const char* prefix) {
  const size_t prefix_len = std::string(prefix).size();
  if (name.size() <= prefix_len || name.compare(0, prefix_len, prefix) != 0) {
    return -1;
  }
  int64_t value = 0;
  for (size_t i = prefix_len; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    const int digit = name[i] - '0';
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) return -1;
    value = value * 10 + digit;
  }
  return value;
}

std::string NumberedPath(const std::string& dir, const char* prefix,
                         int64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06lld",
                static_cast<long long>(number));
  return StrCat(dir, "/", prefix, buf);
}

void RemoveQuietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // best-effort; a leftover file is re-pruned later
}

/// One observation as framed in the WAL.
struct WalObservation {
  uint64_t seq = 0;
  int group_id = 0;
  double value = 0.0;
};

std::string EncodeObservation(uint64_t seq, int group_id, double value) {
  BinaryWriter w;
  w.PutU64(seq);
  w.PutI32(group_id);
  w.PutDouble(value);
  return w.TakeBytes();
}

Result<WalObservation> DecodeObservation(std::string_view payload) {
  BinaryReader r(payload);
  WalObservation obs;
  RVAR_ASSIGN_OR_RETURN(obs.seq, r.ReadU64());
  RVAR_ASSIGN_OR_RETURN(obs.group_id, r.ReadI32());
  RVAR_ASSIGN_OR_RETURN(obs.value, r.ReadDouble());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrCat("observation record has ", r.remaining(), " trailing bytes"));
  }
  return obs;
}

// Durable checkpoint layout (PayloadKind::kDurableState):
//   record 0: watermark seq, next WAL segment id, decay, pmf_floor
//   record 1: the shape-library image (kShapeLibrary), nested verbatim
//   record 2: the service-state image (kShapeServiceState), nested verbatim
struct DurableImage {
  uint64_t watermark = 0;
  uint64_t next_wal_segment = 0;
  double decay = 0.0;
  double pmf_floor = 0.0;
  std::unique_ptr<core::ShapeLibrary> library;
  std::vector<core::ShapeService::GroupState> groups;
};

Result<DurableImage> DecodeDurableImage(std::string bytes,
                                        SnapshotDefect* defect) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(std::move(bytes), PayloadKind::kDurableState,
                           defect));
  if (reader.num_records() != 3) {
    return Status::InvalidArgument(
        StrCat("durable snapshot holds ", reader.num_records(),
               " records, layout has exactly 3"));
  }
  DurableImage image;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(image.watermark, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(image.next_wal_segment, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(image.decay, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(image.pmf_floor, r.ReadDouble());
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          "durable snapshot header has trailing bytes");
    }
  }
  RVAR_ASSIGN_OR_RETURN(std::string_view library_rec, reader.Record(1));
  RVAR_ASSIGN_OR_RETURN(core::ShapeLibrary library,
                        DecodeShapeLibrary(std::string(library_rec)));
  image.library = std::make_unique<core::ShapeLibrary>(std::move(library));
  RVAR_ASSIGN_OR_RETURN(std::string_view groups_rec, reader.Record(2));
  RVAR_ASSIGN_OR_RETURN(image.groups,
                        DecodeShapeServiceState(std::string(groups_rec)));
  return image;
}

core::ShapeService::Options ServiceOptions(
    const RecoveryManager::Options& options) {
  core::ShapeService::Options service;
  service.decay = options.decay;
  service.pmf_floor = options.pmf_floor;
  service.sketch_k = options.sketch_k;
  return service;
}

}  // namespace

const char* RecoveryReasonName(RecoveryReason reason) {
  switch (reason) {
    case RecoveryReason::kSnapshotCorrupt:
      return "snapshot-corrupt";
    case RecoveryReason::kWalSegmentCorrupt:
      return "wal-segment-corrupt";
    case RecoveryReason::kWalTornTail:
      return "wal-torn-tail";
    case RecoveryReason::kWalCorruptRecord:
      return "wal-corrupt-record";
    case RecoveryReason::kWalBadPayload:
      return "wal-bad-payload";
    case RecoveryReason::kWalDuplicate:
      return "wal-duplicate";
    case RecoveryReason::kWalReordered:
      return "wal-reordered";
    case RecoveryReason::kWalStale:
      return "wal-stale";
  }
  return "unknown";
}

std::string RecoveryReport::ToString() const {
  std::string out = StrCat("recovered generation ", snapshot_generation,
                           ", applied ", wal_records_applied,
                           " WAL records from ", num_wal_segments_scanned,
                           " segments");
  for (int i = 0; i < kNumRecoveryReasons; ++i) {
    if (counts[static_cast<size_t>(i)] == 0) continue;
    out += StrCat("; ", RecoveryReasonName(static_cast<RecoveryReason>(i)),
                  "=", counts[static_cast<size_t>(i)]);
  }
  if (wal_bytes_truncated > 0) {
    out += StrCat("; truncated ", wal_bytes_truncated, " bytes");
  }
  return out;
}

Result<RecoveryManager> RecoveryManager::Open(const std::string& dir) {
  return Open(dir, Options());
}

Result<RecoveryManager> RecoveryManager::Open(const std::string& dir,
                                              const Options& options) {
  if (options.keep_snapshots < 1) {
    return Status::InvalidArgument("keep_snapshots must be >= 1");
  }
  if (!(options.decay > 0.0) || options.decay > 1.0) {
    return Status::InvalidArgument("decay must be in (0, 1]");
  }
  if (options.sketch_k < KllSketch::kMinK ||
      options.sketch_k > KllSketch::kMaxK) {
    return Status::InvalidArgument(
        StrCat("options.sketch_k must lie in [", KllSketch::kMinK, ", ",
               KllSketch::kMaxK, "], got ", options.sketch_k));
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(
        StrCat("cannot create ", dir, ": ", ec.message()));
  }
  RecoveryManager manager(dir, options);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (int64_t gen = ParseSuffix(name, kSnapshotPrefix); gen >= 0) {
      manager.snapshot_generations_.push_back(gen);
    } else if (int64_t seg = ParseSuffix(name, kWalPrefix); seg >= 0) {
      manager.wal_segments_.push_back(static_cast<uint64_t>(seg));
    }
  }
  if (ec) {
    return Status::IOError(StrCat("cannot list ", dir, ": ", ec.message()));
  }
  std::sort(manager.snapshot_generations_.begin(),
            manager.snapshot_generations_.end());
  std::sort(manager.wal_segments_.begin(), manager.wal_segments_.end());
  if (!manager.snapshot_generations_.empty()) {
    manager.latest_generation_ = manager.snapshot_generations_.back();
  }
  uint64_t max_seg = 0;
  if (!manager.wal_segments_.empty()) max_seg = manager.wal_segments_.back();
  manager.next_segment_id_ =
      std::max<uint64_t>(max_seg,
                         static_cast<uint64_t>(std::max<int64_t>(
                             manager.latest_generation_, 0))) +
      1;
  return manager;
}

std::string RecoveryManager::SnapshotPath(int64_t gen) const {
  return NumberedPath(dir_, kSnapshotPrefix, gen);
}

std::string RecoveryManager::WalPath(uint64_t segment) const {
  return NumberedPath(dir_, kWalPrefix, static_cast<int64_t>(segment));
}

Status RecoveryManager::Bootstrap(core::ShapeLibrary library) {
  if (live_) {
    return Status::FailedPrecondition("manager already holds live state");
  }
  if (HasState()) {
    return Status::FailedPrecondition(
        StrCat(dir_, " already holds ", snapshot_generations_.size(),
               " snapshot generations; Recover() them instead"));
  }
  auto owned = std::make_unique<core::ShapeLibrary>(std::move(library));
  RVAR_ASSIGN_OR_RETURN(service_, core::ShapeService::Make(
                                      owned.get(), ServiceOptions(options_)));
  library_ = std::move(owned);
  last_seq_ = 0;
  live_ = true;
  const Status checkpoint = Checkpoint();
  if (!checkpoint.ok()) live_ = false;
  return checkpoint;
}

Result<RecoveryReport> RecoveryManager::Recover() {
  rvar::obs::ScopedSpan span("recovery/recover");
  if (snapshot_generations_.empty()) {
    return Status::NotFound(StrCat(dir_, " holds no snapshot generation"));
  }
  RecoveryReport report;
  // One child span per phase; each emplace ends the previous phase.
  std::optional<rvar::obs::ScopedSpan> phase;
  phase.emplace("recovery/restore_snapshot");

  // Newest restorable generation wins. Generations skipped on the way are
  // counted; the damaged ones among them are deleted once a generation has
  // been restored, so they cannot shadow the next checkpoint.
  DurableImage image;
  std::unique_ptr<core::ShapeService> service;
  std::vector<int64_t> damaged;
  int64_t loaded_gen = -1;
  for (auto it = snapshot_generations_.rbegin();
       it != snapshot_generations_.rend(); ++it) {
    SnapshotDefect defect = SnapshotDefect::kNone;
    Result<std::string> bytes = ReadFileToString(SnapshotPath(*it));
    Result<DurableImage> decoded =
        bytes.ok() ? DecodeDurableImage(*std::move(bytes), &defect)
                   : Result<DurableImage>(bytes.status());
    if (decoded.ok()) {
      if (decoded->decay != options_.decay ||
          decoded->pmf_floor != options_.pmf_floor) {
        return Status::FailedPrecondition(StrCat(
            SnapshotPath(*it), " was written with decay ", decoded->decay,
            " and pmf_floor ", decoded->pmf_floor, "; the options say ",
            options_.decay, " and ", options_.pmf_floor));
      }
      auto made = core::ShapeService::Make(decoded->library.get(),
                                           ServiceOptions(options_));
      if (made.ok()) {
        // A sketch k other than options.sketch_k fails FailedPrecondition.
        const Status restored =
            (*made)->RestoreState(std::move(decoded->groups));
        if (restored.IsFailedPrecondition()) {
          return Status::FailedPrecondition(
              StrCat(SnapshotPath(*it), ": ", restored.message()));
        }
        if (restored.ok()) {
          image = *std::move(decoded);
          service = *std::move(made);
          loaded_gen = *it;
          break;
        }
      }
    }
    ++report.counts[static_cast<size_t>(RecoveryReason::kSnapshotCorrupt)];
    ++report.num_snapshots_discarded;
    // Short, torn or CRC-failed bytes; an intact image of another kind or
    // version (or a file that is no snapshot at all) stays on disk.
    if (defect != SnapshotDefect::kNone &&
        defect != SnapshotDefect::kBadMagic &&
        defect != SnapshotDefect::kBadVersion &&
        defect != SnapshotDefect::kWrongPayloadKind) {
      damaged.push_back(*it);
    }
  }
  if (loaded_gen < 0) {
    return Status::IOError(
        StrCat("none of the ", report.num_snapshots_discarded,
               " snapshot generations in ", dir_, " can be restored"));
  }
  for (int64_t gen : damaged) {
    RemoveQuietly(SnapshotPath(gen));
    snapshot_generations_.erase(std::find(snapshot_generations_.begin(),
                                          snapshot_generations_.end(), gen));
  }
  // The service points into the library: replace it first.
  service_ = std::move(service);
  library_ = std::move(image.library);
  // Kept generations newer than the restored one stay ahead of it, so the
  // next checkpoint never overwrites them.
  latest_generation_ = snapshot_generations_.back();
  first_segment_after_[loaded_gen] = image.next_wal_segment;
  // Segments the image does not cover must keep ids at or above its first
  // post-snapshot segment, or the next Recover would skip them.
  next_segment_id_ = std::max(next_segment_id_, image.next_wal_segment);
  report.snapshot_generation = loaded_gen;

  // Replay the WAL: scan, in id order, the segments the snapshot does not
  // cover, heal torn or corrupt tails on disk, and buffer the records
  // newer than the snapshot in arrival order; sorting them by sequence
  // number below collapses duplicates and reorderings deterministically.
  // Segment ids rise with every checkpoint and rotation, so a segment
  // below the image's first post-snapshot segment holds only covered
  // records: it is not read, and stays on disk as it is for a fallback to
  // an older generation.
  phase.emplace("recovery/scan_wal");
  struct Pending {
    WalObservation obs;
    bool late;  ///< arrived after a higher sequence number
  };
  std::vector<Pending> pending;
  uint64_t max_seq_seen = 0;
  bool any_late = false;
  std::vector<uint64_t> dead_segments;
  for (uint64_t seg : wal_segments_) {
    if (seg < image.next_wal_segment) continue;
    Result<WalScanResult> scan = ScanWalFile(WalPath(seg));
    ++report.num_wal_segments_scanned;
    if (!scan.ok()) {
      // Header unusable: nothing in the file can be trusted.
      ++report.counts[static_cast<size_t>(
          RecoveryReason::kWalSegmentCorrupt)];
      RemoveQuietly(WalPath(seg));
      dead_segments.push_back(seg);
      continue;
    }
    const WalScanResult& result = *scan;
    if (result.torn_tail) {
      ++report.counts[static_cast<size_t>(RecoveryReason::kWalTornTail)];
    }
    if (result.corrupt_record) {
      ++report.counts[static_cast<size_t>(
          RecoveryReason::kWalCorruptRecord)];
    }
    if (result.dropped_bytes > 0) {
      RVAR_RETURN_NOT_OK(TruncateFile(WalPath(seg), result.valid_bytes));
      report.wal_bytes_truncated +=
          static_cast<int64_t>(result.dropped_bytes);
    }
    for (std::string_view record : result.records) {
      Result<WalObservation> obs = DecodeObservation(record);
      if (!obs.ok()) {
        ++report.counts[static_cast<size_t>(
            RecoveryReason::kWalBadPayload)];
        continue;
      }
      if (obs->seq <= image.watermark) {
        ++report.counts[static_cast<size_t>(RecoveryReason::kWalStale)];
        continue;
      }
      const bool late = obs->seq < max_seq_seen;
      any_late = any_late || late;
      pending.push_back({*obs, late});
      max_seq_seen = std::max(max_seq_seen, obs->seq);
    }
  }
  for (uint64_t seg : dead_segments) {
    wal_segments_.erase(
        std::remove(wal_segments_.begin(), wal_segments_.end(), seg),
        wal_segments_.end());
  }

  // A record the input policy rejects still holds its sequence number, so
  // new appends continue above it.
  last_seq_ = std::max(image.watermark, max_seq_seen);
  live_ = true;
  phase.emplace("recovery/replay");
  // Sequence order; of the records sharing a number the first to arrive
  // wins and the others are duplicates. With no late record the numbers
  // never decrease, so the buffer is already in that order.
  if (any_late) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.obs.seq < b.obs.seq;
                     });
  }
  // Bucket the survivors by owning shard, keeping sequence order inside
  // each bucket, and apply the buckets in one parallel region: all of a
  // group's observations land in one bucket, in order, and shards share
  // nothing, so the state is the same at any thread count.
  const size_t num_shards = static_cast<size_t>(service_->num_shards());
  std::vector<std::vector<const WalObservation*>> buckets(num_shards);
  for (size_t i = 0; i < pending.size(); ++i) {
    const WalObservation& obs = pending[i].obs;
    if (i > 0 && obs.seq == pending[i - 1].obs.seq) {
      ++report.counts[static_cast<size_t>(RecoveryReason::kWalDuplicate)];
      continue;
    }
    if (pending[i].late) {
      ++report.counts[static_cast<size_t>(RecoveryReason::kWalReordered)];
    }
    buckets[service_->ShardIndexFor(obs.group_id)].push_back(&obs);
  }
  std::vector<int64_t> applied(num_shards, 0);
  std::vector<int64_t> rejected(num_shards, 0);
  ParallelFor(num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      for (const WalObservation* obs : buckets[s]) {
        if (service_->Observe(obs->group_id, obs->value).ok()) {
          ++applied[s];
        } else {
          ++rejected[s];
        }
      }
    }
  });
  for (size_t s = 0; s < num_shards; ++s) {
    report.wal_records_applied += applied[s];
    report.counts[static_cast<size_t>(RecoveryReason::kWalBadPayload)] +=
        rejected[s];
  }

  const RecoveryMetrics& metrics = RecoveryMetrics::Get();
  metrics.recover_total->Increment();
  metrics.wal_records_replayed_total->Increment(report.wal_records_applied);
  metrics.wal_bytes_truncated_total->Increment(report.wal_bytes_truncated);
  metrics.snapshots_discarded_total->Increment(report.num_snapshots_discarded);
  for (int i = 0; i < kNumRecoveryReasons; ++i) {
    const int64_t n = report.counts[static_cast<size_t>(i)];
    if (n > 0) metrics.reasons[i]->Increment(n);
  }

  // Post-recovery appends go to a fresh segment; the replayed ones stay
  // until the next checkpoint prunes them.
  phase.emplace("recovery/rotate_wal");
  RVAR_RETURN_NOT_OK(RotateWal());
  return report;
}

Status RecoveryManager::Observe(int group_id, double normalized_runtime) {
  if (!live_ || wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Observe requires live state (Bootstrap() or Recover() first)");
  }
  // The service's own input policy, applied before anything is logged.
  RVAR_RETURN_NOT_OK(
      service_->ValidateObservation(group_id, normalized_runtime));
  const uint64_t seq = last_seq_ + 1;
  const std::string record =
      EncodeObservation(seq, group_id, normalized_runtime);
  RVAR_RETURN_NOT_OK(wal_->Append(record));
  const RecoveryMetrics& metrics = RecoveryMetrics::Get();
  metrics.wal_appends_total->Increment();
  metrics.wal_append_bytes_total->Increment(
      static_cast<int64_t>(record.size()));
  last_seq_ = seq;
  return service_->Observe(group_id, normalized_runtime);
}

ServingState RecoveryManager::state() const {
  ServingState view;
  if (service_ == nullptr) return view;
  view.library = library_.get();
  // One log theta table for every tracker of the view; the options were
  // validated when the service was built, so nothing below can fail.
  const std::shared_ptr<const core::ClusterLogPmf> log_pmf =
      *core::ClusterLogPmf::MakeShared(*library_, options_.pmf_floor);
  for (core::ShapeService::GroupState& group : service_->ExportState()) {
    core::OnlineShapeTracker tracker = *core::OnlineShapeTracker::Make(
        library_.get(), log_pmf, options_.decay);
    const Status restored = tracker.RestoreState(
        group.log_likelihood, group.count, group.num_clamped);
    RVAR_CHECK(restored.ok());
    view.trackers.emplace(group.group_id, std::move(tracker));
    view.sketches.emplace(group.group_id, *std::move(group.sketch));
  }
  return view;
}

Status RecoveryManager::WriteSnapshot(int64_t generation,
                                      uint64_t next_wal_segment) {
  SnapshotWriter snap(PayloadKind::kDurableState);
  BinaryWriter header;
  header.PutU64(last_seq_);
  header.PutU64(next_wal_segment);
  header.PutDouble(options_.decay);
  header.PutDouble(options_.pmf_floor);
  snap.AddRecord(header.bytes());
  snap.AddRecord(EncodeShapeLibrary(*library_));
  snap.AddRecord(EncodeShapeServiceState(*service_));
  const std::string image = snap.Finish();
  RecoveryMetrics::Get().snapshot_bytes_total->Increment(
      static_cast<int64_t>(image.size()));
  return AtomicWriteFile(SnapshotPath(generation), image);
}

Status RecoveryManager::RotateWal() {
  const uint64_t seg = next_segment_id_++;
  RVAR_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Create(WalPath(seg), seg, options_.sync_each_append));
  wal_ = std::make_unique<WalWriter>(std::move(writer));
  wal_segments_.push_back(seg);
  return Status::OK();
}

void RecoveryManager::Prune() {
  while (snapshot_generations_.size() >
         static_cast<size_t>(options_.keep_snapshots)) {
    const int64_t gen = snapshot_generations_.front();
    RemoveQuietly(SnapshotPath(gen));
    snapshot_generations_.erase(snapshot_generations_.begin());
    first_segment_after_.erase(gen);
  }
  if (snapshot_generations_.empty()) return;
  // WAL segments older than the oldest kept generation's first segment
  // can never be replayed again. Generations whose metadata this process
  // never saw are left alone (pruned once checkpoints refresh the map).
  const auto it = first_segment_after_.find(snapshot_generations_.front());
  if (it == first_segment_after_.end()) return;
  const uint64_t oldest_needed = it->second;
  const uint64_t current = wal_ != nullptr ? wal_->segment_id() : 0;
  std::vector<uint64_t> kept;
  for (uint64_t seg : wal_segments_) {
    if (seg < oldest_needed && seg != current) {
      RemoveQuietly(WalPath(seg));
    } else {
      kept.push_back(seg);
    }
  }
  wal_segments_ = std::move(kept);
}

Status RecoveryManager::Checkpoint() {
  rvar::obs::ScopedSpan span("recovery/checkpoint");
  rvar::obs::ScopedLatencyTimer timer(
      RecoveryMetrics::Get().checkpoint_latency);
  if (!live_) {
    return Status::FailedPrecondition(
        "Checkpoint requires live state (Bootstrap() or Recover() first)");
  }
  RecoveryMetrics::Get().checkpoints_total->Increment();
  // Rotate before writing: Recover skips every segment below the image's
  // first post-snapshot segment, so no image may name one that later
  // appends miss. A failed rotation leaves appends in the old segment and
  // writes no image; a failed write leaves the older generations, which
  // replay both segments.
  RVAR_RETURN_NOT_OK(RotateWal());
  const uint64_t first_segment = wal_->segment_id();
  const int64_t generation = latest_generation_ + 1;
  RVAR_RETURN_NOT_OK(WriteSnapshot(generation, first_segment));
  snapshot_generations_.push_back(generation);
  first_segment_after_[generation] = first_segment;
  latest_generation_ = generation;
  Prune();
  return Status::OK();
}

}  // namespace io
}  // namespace rvar

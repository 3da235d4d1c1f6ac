// Copyright 2026 The rvar Authors.
//
// Thread-safe serving facade over per-group OnlineShapeTracker state
// (DESIGN.md §13). The serving pipeline observes normalized runtimes for
// many job groups from many client threads at once. State is partitioned
// into share-nothing shards by a multiplicative hash of the group id:
// each shard owns its tracker map, its own observation totals, its own
// obs counters, and its own replica of the published classifier epoch —
// so the observe/query hot path never takes a lock shared with another
// shard, and a model swap publishes shard-locally without a global lock.
// Observations for one group serialize on that group's shard, preserving
// the tracker's (deterministic) per-group observation order semantics.
//
// Snapshot semantics are shard-count independent: ExportState merges
// per-shard snapshots deterministically (shard-index order, then a global
// sort by group id), so the exported state — and therefore the
// io/serialize.h kShapeServiceState image — is byte-identical whether the
// service runs 1 shard or 64.

#ifndef RVAR_CORE_SHAPE_SERVICE_H_
#define RVAR_CORE_SHAPE_SERVICE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace core {

/// \brief Concurrent per-group shape tracking over a fixed library.
///
/// All methods are safe to call from any number of threads. Group state is
/// created on first Observe; queries for never-observed groups answer from
/// the uniform prior (the same answer a fresh tracker gives).
class ShapeService {
 public:
  struct Options {
    /// Per-observation decay on past log-likelihood mass (OnlineShapeTracker).
    double decay = 1.0;
    /// Probability floor before taking logs.
    double pmf_floor = 1e-6;
    /// Share-nothing shards; more shards = less cross-group contention.
    /// Must be >= 1. Exported state and every query answer are identical
    /// at any shard count.
    int num_shards = 16;
    /// Accuracy knob of the per-group quantile sketch (KllSketch top-level
    /// capacity): larger = tighter rank error, more memory. Bounded state
    /// per group is ~2 KB at the default. Must lie in [KllSketch::kMinK,
    /// KllSketch::kMaxK]; snapshots restore only into a service with the
    /// same value.
    int sketch_k = 200;
    /// Per-shard capacity of the reconstructed-PMF cache serving
    /// PriorShape/ReconstructPmf (entries, not bytes; a 200-bin entry is
    /// ~1.7 KB). 0 disables caching. The cache never changes an answer —
    /// entries are invalidated by a per-group version stamp bumped on
    /// every state change.
    int pmf_cache_entries = 1024;
  };

  /// \param library must outlive the service. Rejects decay outside
  /// (0, 1], non-positive pmf_floor, and num_shards < 1 up front, so
  /// per-group tracker creation inside Observe can never fail.
  static Result<std::unique_ptr<ShapeService>> Make(const ShapeLibrary* library,
                                                    Options options);
  static Result<std::unique_ptr<ShapeService>> Make(
      const ShapeLibrary* library) {
    return Make(library, Options());
  }

  /// Incorporates one normalized runtime for `group_id`, creating the
  /// group's tracker on first contact. Never blocks on other shards.
  /// Inputs failing ValidateObservation are refused before any state is
  /// touched.
  Status Observe(int group_id, double normalized_runtime);

  /// The input policy of every entry point that feeds group state (Observe
  /// here, io::RecoveryManager before it logs): negative group ids and
  /// non-finite runtimes are rejected with InvalidArgument, and counted in
  /// shape_service_observe_rejected, rather than clamped or dropped. A
  /// negative id would create a tracker that RestoreState — which requires
  /// ids >= 0 — could never reload; a clamped NaN would hide a corrupt feed
  /// behind an OK status.
  Status ValidateObservation(int group_id, double normalized_runtime) const;

  /// Posterior over shapes for the group; uniform for unknown groups.
  std::vector<double> Posterior(int group_id) const;

  /// Most likely shape for the group; -1 for unknown / unobserved groups.
  /// Callers serving this as data should substitute GlobalPriorShape()
  /// for the -1 sentinel (see serve/frontend.cc).
  int MostLikely(int group_id) const;

  /// Argmax of the library's global prior: the cluster holding the most
  /// pooled reference samples (lowest index wins ties). Always a valid
  /// cluster in [0, num_clusters) — the fallback answer for groups no
  /// tracker has ever seen.
  int GlobalPriorShape() const { return global_prior_shape_; }

  /// The serving prior rung's answer (serve/frontend.cc): the Eq. 9
  /// posterior argmax over the group's *reconstructed* observation PMF —
  /// per-bin counts rebuilt on demand from the group's quantile sketch
  /// and scored against the shared log theta table — falling back to
  /// GlobalPriorShape() for unknown (or empty) groups. Always a valid
  /// cluster. Reconstructions are memoized in a per-shard cache keyed by
  /// the group's version stamp, so repeated prior queries between
  /// observations cost one map lookup.
  int PriorShape(int group_id) const;

  /// Reconstructs the group's smoothed, normalized observation PMF (the
  /// ShapeLibrary::ObservationPmf representation) from its sketch into
  /// `pmf`. Returns false (and clears `pmf`) for unknown groups. Shares
  /// the PriorShape reconstruction cache.
  bool ReconstructPmf(int group_id, std::vector<double>* pmf) const;

  /// Drift score: posterior probability the group still follows `cluster`.
  /// 1/K for unknown groups (uniform prior).
  double ProbabilityOf(int group_id, int cluster) const;

  /// Observations incorporated for the group (0 if unknown).
  int64_t GroupCount(int group_id) const;

  /// Total observations across all groups: per-shard counts merged in
  /// shard-index order (each shard maintains its total, so this never
  /// walks the tracker maps).
  int64_t TotalObservations() const;

  /// Number of groups with a tracker.
  size_t NumGroups() const;

  /// All tracked group ids, ascending.
  std::vector<int> TrackedGroups() const;

  /// Drops one group's state (e.g. after a group is decommissioned).
  /// Returns true if the group had a tracker.
  bool Forget(int group_id);

  /// Number of share-nothing shards.
  int num_shards() const { return static_cast<int>(num_shards_); }

  /// The shard that owns `group_id` — the routing hash serving front-ends
  /// use to build per-shard queues that match the service's partitioning.
  size_t ShardIndexFor(int group_id) const;

  /// Atomically publishes `model` as the serving classifier: the global
  /// slot first, then every shard's replica in shard-index order, all via
  /// atomic shared_ptr stores (RCU: readers holding a snapshot keep the
  /// previous version alive until they drop it, so a swap never blocks or
  /// invalidates an in-flight prediction, and no global lock is taken).
  /// Null clears the slot. Thread-safe.
  void SwapModel(std::shared_ptr<const ml::GbdtClassifier> model);

  /// The currently published model; null until the first SwapModel. The
  /// returned pointer is an immutable epoch — callers score a whole batch
  /// against one snapshot for version consistency. Lock-free.
  std::shared_ptr<const ml::GbdtClassifier> ModelSnapshot() const;

  /// The shard-local replica of the published model. During a swap,
  /// replicas update in shard-index order, so two shards may briefly
  /// serve different epochs — each shard-local batch is still scored
  /// against exactly one epoch. Lock-free.
  std::shared_ptr<const ml::GbdtClassifier> ModelSnapshotForShard(
      size_t shard_index) const;

  /// One group's checkpointable state (io/serialize.h codec): the
  /// tracker's discounted sums plus the bounded quantile sketch. The
  /// sketch is mandatory on restore — RestoreState refuses states without
  /// one (pre-sketch images fail at decode, not half-load).
  struct GroupState {
    int group_id = 0;
    std::vector<double> log_likelihood;  ///< per-cluster discounted sums
    int64_t count = 0;
    int64_t num_clamped = 0;
    std::optional<KllSketch> sketch;  ///< bounded per-group summary
  };

  /// Point-in-time snapshot of every tracker, ascending by group id (all
  /// shards locked together, so concurrent Observes land entirely before
  /// or entirely after the export). Byte-identical at any shard count.
  /// Maintenance path: does not touch the contention counters.
  std::vector<GroupState> ExportState() const;

  /// Replaces all tracker state with `states` (the restart path; taken by
  /// value so a caller done with them moves the sketches in). Fully
  /// validated before anything is touched: on error the service is
  /// unchanged. A sketch whose k differs from options().sketch_k fails
  /// with FailedPrecondition (the state was written under another
  /// configuration); any other defect with InvalidArgument. Maintenance
  /// path: does not touch the contention counters.
  Status RestoreState(std::vector<GroupState> states);

  const ShapeLibrary& library() const { return *library_; }
  const Options& options() const { return options_; }

 private:
  /// One tracked group: the running posterior, the bounded quantile
  /// sketch, and a version stamp bumped on every mutation (the
  /// reconstruction cache's invalidation key).
  struct GroupEntry {
    GroupEntry(OnlineShapeTracker tracker_in, KllSketch sketch_in)
        : tracker(std::move(tracker_in)), sketch(std::move(sketch_in)) {}
    OnlineShapeTracker tracker;
    KllSketch sketch;
    uint64_t version = 0;
  };

  /// One cached PMF reconstruction: valid while the group's version stamp
  /// still matches. `counts` is the raw BinCountsInto output (unsmoothed,
  /// unnormalized) so both the Eq. 9 scorer and ReconstructPmf can reuse
  /// it.
  struct CacheEntry {
    uint64_t version = 0;
    int shape = 0;
    std::vector<double> counts;
  };

  /// One share-nothing partition: group map, observation total, obs
  /// counters, reconstruction cache, and a replica of the published model
  /// epoch. Nothing in a shard is ever touched under another shard's
  /// mutex.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<int, GroupEntry> groups;
    /// PMF reconstruction memo; guarded by mu. Bounded at
    /// options.pmf_cache_entries — overflow clears the whole map (cheap,
    /// deterministic, and correctness never depends on residency).
    mutable std::unordered_map<int, CacheEntry> pmf_cache;
    /// Reconstruction target when caching is disabled (entries = 0);
    /// guarded by mu like the cache it substitutes for.
    mutable CacheEntry reconstruct_scratch;
    int64_t total_observations = 0;  ///< guarded by mu
    /// Shard-local epoch replica; atomic shared_ptr access only.
    std::shared_ptr<const ml::GbdtClassifier> model;
    obs::Counter* observe_total = nullptr;  ///< this shard's observes
    obs::Counter* contention = nullptr;     ///< contended hot-path locks
  };

  ShapeService(const ShapeLibrary* library, Options options,
               std::shared_ptr<const ClusterLogPmf> log_pmf);

  Shard& ShardFor(int group_id) const;
  /// Locks the shard for the observe/query hot path, counting the
  /// acquisition in the shard's contention counter when another thread
  /// already holds it. Snapshot/maintenance paths lock directly instead,
  /// so contention metrics only ever reflect serving traffic.
  std::unique_lock<std::mutex> LockShard(size_t shard_index) const;

  /// Looks up (or rebuilds) the group's cached reconstruction. Caller
  /// holds the shard lock; returns the up-to-date entry for `entry`.
  const CacheEntry& ReconstructLocked(Shard& shard, int group_id,
                                      const GroupEntry& entry) const;

  const ShapeLibrary* library_;
  Options options_;
  /// Shared log theta table (ClusterLogPmf): one copy serves every
  /// tracker in every shard plus the Eq. 9 prior scorer.
  std::shared_ptr<const ClusterLogPmf> log_pmf_;
  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_;
  int global_prior_shape_ = 0;

  // The published classifier (global slot mirrored into every shard's
  // replica). Atomic shared_ptr access only — no mutex anywhere on the
  // model path.
  std::shared_ptr<const ml::GbdtClassifier> model_;

  // Metrics (obs/metrics.h): write-only, never consulted for results.
  obs::Histogram* observe_latency_;               ///< Observe() wall clock
  obs::Histogram* query_latency_;                 ///< Posterior() wall clock
  obs::Counter* observe_total_;
  obs::Counter* observe_rejected_;  ///< negative ids / non-finite samples
  obs::Counter* model_swaps_total_;               ///< SwapModel() calls
  obs::Counter* pmf_cache_hits_;    ///< reconstruction served from cache
  obs::Counter* pmf_cache_misses_;  ///< reconstruction recomputed
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_SHAPE_SERVICE_H_

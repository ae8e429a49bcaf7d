#ifndef SGP_PARTITION_STATE_H_
#define SGP_PARTITION_STATE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "partition/partitioning.h"
#include "partition/vertexcut/replica_state.h"

namespace sgp {

/// Exact running max and min of an array of effective loads that only
/// grow, so HDRF's balance-term normalization costs O(1) per placement
/// instead of an O(k) scan.
///
/// Invariant (DESIGN.md §10): `max` and `min` equal the values
/// score::EffectiveSpread computes over the array (the max starts at 0),
/// and `min_count` is the number of entries equal to `min`. The max moves
/// with the updated entry; the min only moves when the last entry at it
/// grows — then one O(k) rescan (about 1/k of updates).
struct EffectiveRange {
  double max = 0;
  double min = 0;
  PartitionId min_count = 0;

  /// Recomputes max, min and min_count over effective[0, k).
  void Rebuild(const double* effective, PartitionId k);

  /// Entry `before` of effective[0, k) has just grown to `after`.
  void Grow(const double* effective, PartitionId k, double before,
            double after) {
    max = std::max(max, after);
    if (before == min && after != before && --min_count == 0) {
      RescanMin(effective, k);
    }
  }

  /// The HDRF spread 1 + (max − min), bit-identical to
  /// score::EffectiveSpread's.
  double spread() const { return 1.0 + (max - min); }

 private:
  void RescanMin(const double* effective, PartitionId k);
};

/// Shared partition-state core: the O(n + k) synopsis every streaming
/// partitioner maintains (Section 2). One PartitionState owns the
/// per-partition loads, the mean-1 normalized capacity weights of
/// heterogeneous clusters, the hard balance caps of Equation (1), the
/// streaming degree table, and the replica sets A(u) — replacing the
/// per-algorithm copies that used to live in greedy_core, HDRF, PGG and
/// Ginger. Components beyond loads+weights are opt-in (Init*) so
/// SynopsisBytes() reflects exactly what an algorithm kept.
///
/// All accessors preserve the exact floating-point expressions of the
/// pre-refactor algorithms (effective load = double(load)/weight, room =
/// !(double(load) + 1 > capacity)), so moving onto this class is
/// byte-identical per seed.
class PartitionState {
 public:
  explicit PartitionState(const PartitionConfig& config);

  PartitionId k() const { return k_; }

  /// True when the config carries per-partition capacity weights.
  bool heterogeneous() const { return heterogeneous_; }

  /// Mean-1 normalized capacity weights (all ones when homogeneous).
  const std::vector<double>& weights() const { return weights_; }

  // ---------------------------------------------------------------------
  // Per-partition loads (vertex counts for edge-cut algorithms, edge
  // counts for vertex-cut algorithms).
  // ---------------------------------------------------------------------
  const std::vector<uint64_t>& loads() const { return loads_; }
  uint64_t load(PartitionId p) const { return loads_[p]; }
  void AddLoad(PartitionId p) { ++loads_[p]; }
  void RemoveLoad(PartitionId p) { --loads_[p]; }

  /// Capacity-normalized load: a twice-as-big machine looks half as
  /// loaded (Appendix A heterogeneous balancing).
  double EffectiveLoad(PartitionId p) const {
    return static_cast<double>(loads_[p]) / weights_[p];
  }

  /// Least effectively-loaded partition, ties toward the lower id.
  PartitionId LeastLoaded() const;

  /// Least effectively-loaded among `candidates` (non-empty), ties toward
  /// the lower id.
  PartitionId LeastLoaded(std::span<const PartitionId> candidates) const;

  // ---------------------------------------------------------------------
  // Hard balance caps C_i = max(1, β·(total/k)·w_i) of Equation (1).
  // ---------------------------------------------------------------------
  void InitCapacities(uint64_t total_items, double balance_slack);
  const std::vector<double>& capacities() const { return capacity_; }
  double capacity(PartitionId p) const { return capacity_[p]; }
  bool HasRoom(PartitionId p) const {
    return !(static_cast<double>(loads_[p]) + 1.0 > capacity_[p]);
  }

  // ---------------------------------------------------------------------
  // Incrementally maintained effective loads (HDRF reads all k per edge,
  // so the division is paid once per placement, not k times per edge),
  // plus their exact max and min (EffectiveRange).
  // ---------------------------------------------------------------------
  void InitEffectiveLoads();
  const std::vector<double>& effective() const { return effective_; }
  void AddLoadUpdatingEffective(PartitionId p) {
    ++loads_[p];
    const double before = effective_[p];
    effective_[p] = static_cast<double>(loads_[p]) / weights_[p];
    effective_range_.Grow(effective_.data(), k_, before, effective_[p]);
  }

  /// Max effective load and the HDRF spread 1 + (max − min), bit-identical
  /// to score::EffectiveSpread over effective(). Valid after
  /// InitEffectiveLoads while loads change only through
  /// AddLoadUpdatingEffective.
  double max_effective() const { return effective_range_.max; }
  double effective_spread() const { return effective_range_.spread(); }

  // ---------------------------------------------------------------------
  // Secondary loads (Ginger balances vertex and edge load jointly).
  // ---------------------------------------------------------------------
  void InitSecondaryLoads();
  const std::vector<uint64_t>& secondary_loads() const { return secondary_; }
  void AddSecondaryLoad(PartitionId p, uint64_t delta) {
    secondary_[p] += delta;
  }

  // ---------------------------------------------------------------------
  // Streaming degree table (HDRF's partial degrees, PGG's placed
  // degrees — the "greedy degree table" of Section 4.2.2).
  // ---------------------------------------------------------------------
  void InitDegreeTable(VertexId num_vertices);
  const std::vector<uint32_t>& degrees() const { return degree_; }
  uint32_t degree(VertexId v) const { return degree_[v]; }
  void IncrementDegree(VertexId v) { ++degree_[v]; }

  // ---------------------------------------------------------------------
  // Replica sets A(u).
  // ---------------------------------------------------------------------
  void InitReplicas(VertexId num_vertices);
  bool replicas_enabled() const { return replicas_enabled_; }
  ReplicaState& replicas() { return replicas_; }
  const ReplicaState& replicas() const { return replicas_; }

  /// Grows the degree table / replica sets to cover `v` — used by ingest
  /// paths that discover the vertex-id space as edges arrive (disk
  /// streaming) instead of knowing n up front.
  void EnsureVertex(VertexId v);

  /// Vertices currently covered by the degree table (0 when disabled).
  VertexId num_tracked_vertices() const {
    return static_cast<VertexId>(degree_.size());
  }

  // ---------------------------------------------------------------------
  // Elastic resharding: growing k at runtime.
  // ---------------------------------------------------------------------

  /// Appends one empty partition (weight 1.0) and returns its id — the
  /// split path of the elastic resharder. Only supported on homogeneous
  /// states whose derived per-partition tables (capacities, effective
  /// loads, secondary loads) are uninitialized; growing those would
  /// silently change every other partition's normalized weight.
  PartitionId AddPartition();

  // ---------------------------------------------------------------------
  // Synopsis accounting: Partitioning::state_bytes is computed one way
  // for every algorithm — the bytes of every live component plus whatever
  // auxiliary state the algorithm registered (assignment arrays,
  // per-vertex neighbor tables).
  // ---------------------------------------------------------------------
  void NoteAuxiliaryBytes(uint64_t bytes) { aux_bytes_ += bytes; }
  uint64_t SynopsisBytes() const;

 private:
  PartitionId k_;
  bool heterogeneous_;
  std::vector<double> weights_;
  std::vector<uint64_t> loads_;
  std::vector<double> capacity_;
  std::vector<double> effective_;
  EffectiveRange effective_range_;
  std::vector<uint64_t> secondary_;
  std::vector<uint32_t> degree_;
  bool degree_enabled_ = false;
  ReplicaState replicas_;
  bool replicas_enabled_ = false;
  uint64_t aux_bytes_ = 0;
};

/// Maps hash values to partitions, proportionally to capacities on
/// heterogeneous clusters and as plain `hash mod k` on homogeneous ones
/// (so homogeneous results are unchanged by this feature). Built from the
/// PartitionState that owns the normalized weights.
class CapacityAwareHasher {
 public:
  explicit CapacityAwareHasher(const PartitionState& state);

  /// Deterministic partition pick for a (well-mixed) hash value.
  PartitionId Pick(uint64_t hash) const;

 private:
  PartitionId k_;
  std::vector<double> cumulative_;  // empty on homogeneous clusters
};

/// Sharded synopsis for the parallel-ingest drivers: one published global
/// PartitionState plus per-worker unpublished deltas. Between barriers a
/// worker sees the published state plus only its own delta — the stale
/// view whose quality cost bench_ablation_parallel_ingest sweeps.
/// Publish() merges every worker's delta in worker order and clears them;
/// the caller accounts the records it broadcast (ParallelStreamResult).
class ShardedPartitionState {
 public:
  ShardedPartitionState(const PartitionConfig& config, uint32_t num_workers);

  PartitionState& global() { return global_; }
  const PartitionState& global() const { return global_; }
  uint32_t num_workers() const {
    return static_cast<uint32_t>(delta_loads_.size());
  }

  // ---- loads: published + own unpublished delta
  uint64_t CombinedLoad(uint32_t w, PartitionId p) const {
    return global_.load(p) + delta_loads_[w][p];
  }
  double CombinedEffectiveLoad(uint32_t w, PartitionId p) const {
    return static_cast<double>(CombinedLoad(w, p)) / global_.weights()[p];
  }
  void AddWorkerLoad(uint32_t w, PartitionId p) { ++delta_loads_[w][p]; }

  // ---- streaming degree table (edge drivers)
  void InitDegreeTable(VertexId num_vertices);
  uint32_t CombinedDegree(uint32_t w, VertexId v) const {
    return global_.degree(v) + delta_degrees_[w][v];
  }
  void IncrementWorkerDegree(uint32_t w, VertexId v);

  // ---- replica sets (edge drivers)
  void InitReplicas(VertexId num_vertices);
  bool ReplicaContains(uint32_t w, VertexId u, PartitionId p) const {
    return global_.replicas().Contains(u, p) ||
           delta_replicas_[w].Contains(u, p);
  }
  bool HasAnyReplica(uint32_t w, VertexId u) const {
    return !global_.replicas().Of(u).empty() ||
           !delta_replicas_[w].Of(u).empty();
  }
  void AddWorkerReplica(uint32_t w, VertexId u, PartitionId p);

  /// Mirrors the published set and every worker delta into bit indices;
  /// the batched sharded scorers then read each vertex's combined
  /// membership as GlobalReplicaRow(u) OR DeltaReplicaRow(w, u).
  void EnableReplicaBitIndex() {
    global_.replicas().EnableBitIndex(global_.k());
    for (ReplicaState& r : delta_replicas_) r.EnableBitIndex(global_.k());
  }
  const uint64_t* GlobalReplicaRow(VertexId u) const {
    return global_.replicas().RowWords(u);
  }
  const uint64_t* DeltaReplicaRow(uint32_t w, VertexId u) const {
    return delta_replicas_[w].RowWords(u);
  }

  /// Visits the combined replica set of `u` as worker `w` sees it:
  /// published entries first, then the worker's unpublished additions
  /// (disjoint by construction of AddWorkerReplica).
  template <typename Fn>
  void ForEachReplica(uint32_t w, VertexId u, Fn&& fn) const {
    for (PartitionId p : global_.replicas().Of(u)) fn(p);
    for (PartitionId p : delta_replicas_[w].Of(u)) fn(p);
  }

  /// Barrier: merges every worker's deltas into the published state in
  /// worker order and clears them. Refreshes the global effective-load
  /// table when enabled.
  void Publish();

  /// Global synopsis plus all per-worker delta state.
  uint64_t SynopsisBytes() const;

 private:
  PartitionState global_;
  std::vector<std::vector<uint64_t>> delta_loads_;
  std::vector<std::vector<uint32_t>> delta_degrees_;
  std::vector<std::vector<VertexId>> touched_degrees_;
  std::vector<ReplicaState> delta_replicas_;
  std::vector<std::vector<std::pair<VertexId, PartitionId>>> replica_records_;
  bool effective_enabled_ = false;
};

}  // namespace sgp

#endif  // SGP_PARTITION_STATE_H_

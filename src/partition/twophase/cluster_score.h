#ifndef SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_
#define SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_

#include <vector>

#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {
namespace twophase {

/// Shared placement core of the two-phase family: an HDRF-shaped pick
/// (Equation 7 g-term + λ balance term, canonical tie-break) where each
/// endpoint's replica membership is augmented with one optional extra
/// partition — the endpoint's cluster home (2PS) — and θ comes from
/// final pass-1 degrees instead of partial streaming degrees. On top of
/// the pick it enforces the Equation (1) hard caps: a full winner falls
/// back to the least effectively-loaded partition with room (the same
/// scalar scan in both modes, so they stay bit-identical).
///
/// kFast ORs the cluster home into the membership word via
/// MembershipRow's delta slot (a precomputed one-hot row per partition)
/// and sweeps with score::HdrfPickFast; kReference computes the same bits
/// with Contains-or-home probes. The floating-point expressions are
/// textually identical to score::HdrfPickBatched, so the two modes agree
/// to the last tie-break.
class ClusterScorer {
 public:
  /// `state` must have capacities, effective loads and replica sets
  /// initialized; `core` must be constructed over the same state (it owns
  /// the mode and the partition.score.* accounting).
  ClusterScorer(PartitionState& state, ScoreCore& core, double lambda)
      : state_(state), core_(core), lambda_(lambda) {
    const PartitionId k = state.k();
    words_ = (static_cast<uint64_t>(k) + 63) / 64;
    // k one-hot rows plus a trailing all-zero row for "no cluster home".
    onehot_.assign(words_ * (static_cast<uint64_t>(k) + 1), 0);
    for (PartitionId p = 0; p < k; ++p) {
      onehot_[static_cast<uint64_t>(p) * words_ + (p >> 6)] =
          uint64_t{1} << (p & 63);
    }
    if (core.mode() == ScoreMode::kFast) tier_ = score::ActiveKernelTier();
  }

  /// Membership-delta row for a cluster home (the all-zero row when the
  /// endpoint has none).
  const uint64_t* RowFor(PartitionId home) const {
    const uint64_t row = home == kInvalidPartition
                             ? static_cast<uint64_t>(state_.k())
                             : static_cast<uint64_t>(home);
    return onehot_.data() + row * words_;
  }

  /// Scores, capacity-checks and commits one edge: updates loads,
  /// effective loads and both endpoints' replica sets, and returns the
  /// chosen partition.
  PartitionId Place(VertexId u, VertexId v, PartitionId home_u,
                    PartitionId home_v, double theta_u, double theta_v,
                    HdrfStats& stats) {
    const PartitionId k = state_.k();
    ReplicaState& replicas = state_.replicas();
    const double* effective = state_.effective().data();
    const uint64_t* loads = state_.loads().data();
    core_.stats().candidates += k;
    PartitionId best;
    if (core_.mode() == ScoreMode::kReference) {
      // The reference keeps the O(k) scan, an oracle independent of the
      // state's incremental max/min tracker that kFast reads.
      double max_load, spread;
      score::EffectiveSpread(effective, k, &max_load, &spread);
      best = PickScalar(u, v, home_u, home_v, theta_u, theta_v, max_load,
                        spread, &stats.tie_breaks);
    } else {
      ++core_.stats().simd_picks;
      best = score::HdrfPickFast(
          tier_, k, effective, loads, {replicas.RowWords(u), RowFor(home_u)},
          {replicas.RowWords(v), RowFor(home_v)}, theta_u, theta_v, lambda_,
          state_.max_effective(), state_.effective_spread(),
          &core_.stats().bitset_hits);
    }
    if (!state_.HasRoom(best)) {
      best = score::LeastLoadedWithRoom(k, loads, state_.weights().data(),
                                        state_.capacities().data());
    }
    state_.AddLoadUpdatingEffective(best);
    replicas.Add(u, best);
    replicas.Add(v, best);
    return best;
  }

  uint64_t SynopsisBytes() const {
    return onehot_.capacity() * sizeof(uint64_t);
  }

 private:
  // Reference twin of the kFast pick: per-candidate Contains-or-home
  // probes, every floating-point expression textually identical.
  PartitionId PickScalar(VertexId u, VertexId v, PartitionId home_u,
                         PartitionId home_v, double theta_u, double theta_v,
                         double max_load, double spread,
                         uint64_t* tie_breaks) const {
    const PartitionId k = state_.k();
    const ReplicaState& replicas = state_.replicas();
    const double* effective = state_.effective().data();
    const uint64_t* loads = state_.loads().data();
    const double gain_u = 1.0 + theta_v;
    const double gain_v = 1.0 + theta_u;
    PartitionId best = 0;
    double best_score = score::kNegInf;
    for (PartitionId i = 0; i < k; ++i) {
      const double bu = static_cast<double>(
          static_cast<unsigned>(replicas.Contains(u, i) || home_u == i));
      const double bv = static_cast<double>(
          static_cast<unsigned>(replicas.Contains(v, i) || home_v == i));
      const double g = bu * gain_u + bv * gain_v;
      const double sc = g + lambda_ * (max_load - effective[i]) / spread;
      if (sc > best_score) {
        best_score = sc;
        best = i;
      } else if (sc == best_score && loads[i] < loads[best]) {
        ++*tie_breaks;
        best = i;
      }
    }
    return best;
  }

  PartitionState& state_;
  ScoreCore& core_;
  double lambda_;
  score::KernelTier tier_ = score::KernelTier::kBatched;  // kFast only
  uint64_t words_ = 0;
  std::vector<uint64_t> onehot_;
};

}  // namespace twophase
}  // namespace sgp

#endif  // SGP_PARTITION_TWOPHASE_CLUSTER_SCORE_H_

#include "partition/score_core.h"

#include <algorithm>

#include "common/telemetry.h"

namespace sgp {

namespace {

// Scoring-core instrumentation (docs/OBSERVABILITY.md, partition.score.*).
// Counters are accumulated in ScoreCoreStats locals on the hot path and
// land here once per run.
struct ScoreMetrics {
  Counter* batches = nullptr;
  Counter* candidates = nullptr;
  Counter* bitset_hits = nullptr;
  Counter* simd_picks = nullptr;

  ScoreMetrics() = default;
  explicit ScoreMetrics(MetricsRegistry& reg) {
    batches = reg.GetCounter("partition.score.batches");
    candidates = reg.GetCounter("partition.score.candidates");
    bitset_hits = reg.GetCounter("partition.score.bitset_hits");
    simd_picks = reg.GetCounter("partition.score.simd.picks");
  }

  static ScoreMetrics& Get() { return CurrentRegistryMetrics<ScoreMetrics>(); }
};

}  // namespace

void FlushScoreCoreStats(const ScoreCoreStats& stats) {
  ScoreMetrics& m = ScoreMetrics::Get();
  if (stats.batches > 0) m.batches->Increment(stats.batches);
  if (stats.candidates > 0) m.candidates->Increment(stats.candidates);
  if (stats.bitset_hits > 0) m.bitset_hits->Increment(stats.bitset_hits);
  if (stats.simd_picks > 0) m.simd_picks->Increment(stats.simd_picks);
}

ScoreCore::ScoreCore(PartitionState& state, ScoreMode mode)
    : state_(state), mode_(mode) {
  const PartitionId k = state_.k();
  SGP_CHECK(k > 0);
  if (mode_ == ScoreMode::kFast) {
    inter_words_.resize((static_cast<uint64_t>(k) + 63) / 64, 0);
    if (state_.replicas_enabled()) state_.replicas().EnableBitIndex(k);
    tier_ = score::ActiveKernelTier();
  } else {
    all_.resize(k);
    for (PartitionId i = 0; i < k; ++i) all_[i] = i;
  }
}

void ScoreCore::BeginGreedyPass(const score::GreedyObjective& objective) {
  greedy_ = objective;
  if (mode_ != ScoreMode::kFast) return;
  const std::vector<uint64_t>& loads = state_.loads();
  const std::vector<double>& capacity = state_.capacities();
  const std::vector<double>& weights = state_.weights();
  tree_.Build(state_.k(), [&](PartitionId p) {
    return score::GreedyZeroKey(greedy_, loads[p], capacity[p], weights[p]);
  });
}

void ScoreCore::BeginGingerPass(const double* combined_loads,
                                double combined_capacity, double alpha,
                                double gamma) {
  ginger_capacity_ = combined_capacity;
  ginger_alpha_ = alpha;
  ginger_gamma_ = gamma;
  if (mode_ != ScoreMode::kFast) return;
  tree_.Build(state_.k(), [&](PartitionId p) {
    return score::GingerZeroKey(combined_loads[p], combined_capacity, alpha,
                                gamma);
  });
}

PartitionId ScoreCore::PlaceHdrfEdgeScalar(VertexId u, VertexId v,
                                           double lambda, HdrfStats& stats) {
  const PartitionId k = state_.k();
  const std::vector<uint64_t>& loads = state_.loads();
  const std::vector<double>& effective = state_.effective();
  ReplicaState& replicas = state_.replicas();

  // Partial degrees observed so far, normalized (Section 4.2.2). An
  // endpoint already in the table is a "hit" — the synopsis had state
  // for it from an earlier edge.
  stats.degree_hits += (state_.degree(u) > 0) + (state_.degree(v) > 0);
  state_.IncrementDegree(u);
  state_.IncrementDegree(v);
  const double du = state_.degree(u);
  const double dv = state_.degree(v);
  const double theta_u = du / (du + dv);
  const double theta_v = 1.0 - theta_u;

  // Balance term in the normalized form of the HDRF paper:
  // λ · (maxsize − |Pi|)/(ε + maxsize − minsize). Equation (7) of the
  // survey abbreviates this as λ(1 − |e(Pi)|/C); the normalized form is
  // what keeps the algorithm balanced under adversarial (BFS) orders.
  double max_load, spread;
  score::EffectiveSpread(effective.data(), k, &max_load, &spread);

  PartitionId best = 0;
  double best_score = score::kNegInf;
  for (PartitionId i = 0; i < k; ++i) {
    double g = 0;
    // g(x, Pi) = (1 + (1 − θ(x))) · 1_{A(x)}(Pi): replicating the
    // higher-degree endpoint scores lower, so its locality is
    // sacrificed first.
    if (replicas.Contains(u, i)) g += 1.0 + theta_v;
    if (replicas.Contains(v, i)) g += 1.0 + theta_u;
    const double sc = g + lambda * (max_load - effective[i]) / spread;
    if (sc > best_score) {
      best_score = sc;
      best = i;
    } else if (sc == best_score && loads[i] < loads[best]) {
      ++stats.tie_breaks;  // equal score resolved by the lighter part
      best = i;
    }
  }
  state_.AddLoadUpdatingEffective(best);
  replicas.Add(u, best);
  replicas.Add(v, best);
  return best;
}

PartitionId ScoreCore::PickPggScalar(VertexId u, VertexId v,
                                     uint32_t ext_degree_u,
                                     uint32_t ext_degree_v) {
  ReplicaState& replicas = state_.replicas();
  auto setu = replicas.Of(u);
  auto setv = replicas.Of(v);
  if (!setu.empty() && !setv.empty()) {
    inter_.clear();
    for (PartitionId p : setu) {
      if (replicas.Contains(v, p)) inter_.push_back(p);
    }
    stats_.candidates += setu.size();
    if (!inter_.empty()) return state_.LeastLoaded(inter_);
    // Disjoint replica sets: spread the endpoint with more remaining
    // edges, i.e. place with the replicas of the busier vertex.
    const bool u_busier =
        static_cast<int64_t>(ext_degree_u) - state_.degree(u) >=
        static_cast<int64_t>(ext_degree_v) - state_.degree(v);
    return state_.LeastLoaded(u_busier ? setu : setv);
  }
  if (!setu.empty()) {
    stats_.candidates += setu.size();
    return state_.LeastLoaded(setu);
  }
  if (!setv.empty()) {
    stats_.candidates += setv.size();
    return state_.LeastLoaded(setv);
  }
  stats_.candidates += state_.k();
  return state_.LeastLoaded(all_);
}

}  // namespace sgp

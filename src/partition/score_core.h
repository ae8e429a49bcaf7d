#ifndef SGP_PARTITION_SCORE_CORE_H_
#define SGP_PARTITION_SCORE_CORE_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

/// Shared k-way candidate-evaluation core (the "score core"): every
/// streaming partitioner evaluates all k candidate partitions per stream
/// element, and this layer owns that loop for the whole roster — LDG and
/// FENNEL (Equations 4/5), HDRF (Equation 7), PowerGraph greedy, Ginger
/// (Equation 8) and the edge-stream greedy family — instead of each
/// algorithm hand-rolling its own copy over `partition/state`.
///
/// Layering: PartitionState (flat SoA synopsis: loads, effective loads,
/// capacities, degrees, replica sets) → ScoreCore (candidate scoring +
/// argmax with the canonical tie-break: equal score → lighter load →
/// lower id) → partitioner (stream order, gather, placement recording).
///
/// Two modes, bit-identical by construction and pinned by the
/// equivalence suite (tests/score_core_test.cc,
/// partitioner_property_test.cc):
///  - kReference: the per-element loops with ReplicaState::Contains
///    probes — the pre-refactor code shape, the baseline of the
///    equivalence tests and the per-mode rows of bench_partitioner_speed.
///    The only mode that counts tie-breaks.
///  - kFast (default): a chunk of B stream elements per call, replica
///    membership read from the bit index (one 64-candidate word per load
///    instead of per-candidate set probes), and the k-way sweep run by the
///    kernel tier picked at runtime (the KernelTier block below): AVX2
///    intrinsics when the CPU has them, otherwise the batched
///    word-at-a-time kernels. HDRF's balance-term max/spread comes from
///    PartitionState's incremental tracker instead of a per-edge O(k)
///    scan. The vertex-greedy family (LDG, FENNEL, restreaming, Ginger)
///    skips the k-way sweep altogether: a sparse pick over the touched
///    partitions plus a tournament tree of zero-neighbour keys. Same
///    selections, no tie-audit counters.
///
/// Every floating-point expression is textually identical between modes
/// (and to the pre-ScoreCore algorithms), so assignments match down to
/// the last tie-break. Builds must not let the compiler contract a*b+c
/// into FMA (see SGP_NATIVE in CMakeLists.txt) or the two shapes could
/// round differently.

/// Decision counters of the scoring core, accumulated in plain locals and
/// flushed once per run (partition.score.*, docs/OBSERVABILITY.md).
struct ScoreCoreStats {
  uint64_t batches = 0;      // chunk-level scorer invocations
  uint64_t candidates = 0;   // candidate partitions evaluated
  uint64_t bitset_hits = 0;  // replica-membership bits found set (kFast)
  uint64_t simd_picks = 0;   // picks served by the kFast path
};

/// Flushes `stats` into the current registry's
/// partition.score.{batches,candidates,bitset_hits} counters.
void FlushScoreCoreStats(const ScoreCoreStats& stats);

/// Decision counters of the HDRF scoring loop (kept distinct from
/// ScoreCoreStats: they feed the long-standing partition.hdrf.* metrics).
struct HdrfStats {
  uint64_t degree_hits = 0;
  uint64_t tie_breaks = 0;
};

namespace score {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Replica-membership row of one vertex: the published (or sequential)
/// word span, plus an optional unpublished worker-delta span that is OR-ed
/// in word-wise (the sharded ingest drivers' combined view).
struct MembershipRow {
  const uint64_t* base = nullptr;
  const uint64_t* delta = nullptr;  // may be null

  uint64_t Word(uint64_t w) const {
    return delta == nullptr ? base[w] : base[w] | delta[w];
  }
  bool Test(PartitionId p) const { return (Word(p >> 6) >> (p & 63)) & 1u; }
};

/// Max effective load and the normalized HDRF spread 1 + (max − min)
/// (ε = 1), with the exact accumulation order of the scalar loop.
inline void EffectiveSpread(const double* effective, PartitionId k,
                            double* max_out, double* spread_out) {
  double max_load = 0;
  double min_load = effective[0];
  for (PartitionId i = 0; i < k; ++i) {
    max_load = std::max(max_load, effective[i]);
    min_load = std::min(min_load, effective[i]);
  }
  *max_out = max_load;
  *spread_out = 1.0 + (max_load - min_load);
}

/// Batched HDRF candidate evaluation: one membership word per endpoint
/// per 64-candidate block, branch-free g-term, argmax with the canonical
/// tie-break. The g accumulation order (u-term then v-term) matches the
/// scalar Contains-probe loop, so scores are bit-identical.
inline PartitionId HdrfPickBatched(PartitionId k, const double* effective,
                                   const uint64_t* loads, MembershipRow u_row,
                                   MembershipRow v_row, double theta_u,
                                   double theta_v, double lambda,
                                   double max_load, double spread,
                                   uint64_t* bitset_hits) {
  const double gain_u = 1.0 + theta_v;  // g of replicating endpoint u
  const double gain_v = 1.0 + theta_u;
  PartitionId best = 0;
  double best_score = kNegInf;
  uint64_t hits = 0;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const uint64_t wu = u_row.Word(blk >> 6);
    const uint64_t wv = v_row.Word(blk >> 6);
    const PartitionId lim = std::min<PartitionId>(k, blk + 64);
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    hits += static_cast<uint64_t>(std::popcount(wu & mask)) +
            static_cast<uint64_t>(std::popcount(wv & mask));
    for (PartitionId i = blk; i < lim; ++i) {
      const double bu = static_cast<double>((wu >> (i - blk)) & 1u);
      const double bv = static_cast<double>((wv >> (i - blk)) & 1u);
      const double g = bu * gain_u + bv * gain_v;
      const double sc = g + lambda * (max_load - effective[i]) / spread;
      if (sc > best_score) {
        best_score = sc;
        best = i;
      } else if (sc == best_score && loads[i] < loads[best]) {
        best = i;
      }
    }
  }
  *bitset_hits += hits;
  return best;
}

/// Objective of the streaming greedy vertex placement (LDG Equation 4,
/// FENNEL Equation 5).
struct GreedyObjective {
  bool ldg = true;
  double alpha = 0.0;     // FENNEL α (per pass, restreaming anneals it)
  double gamma = 1.5;     // FENNEL γ
  bool sqrt_form = true;  // γ == 1.5 → sqrt instead of pow
};

inline double GreedyScore(const GreedyObjective& obj, uint32_t count,
                          double size, double capacity, double weight) {
  if (obj.ldg) {
    return static_cast<double>(count) * (1.0 - size / capacity);
  }
  // Effective load: raw size scaled by inverse capacity, so a twice-as-big
  // machine looks half as loaded.
  const double eff = size / weight;
  const double load =
      obj.sqrt_form ? std::sqrt(eff) : std::pow(eff, obj.gamma - 1.0);
  return static_cast<double>(count) - obj.alpha * obj.gamma * load;
}

/// Reference per-element LDG/FENNEL pick: hard capacity skip, argmax,
/// ties toward the smaller partition. kInvalidPartition when every
/// partition is at capacity.
inline PartitionId GreedyPickScalar(PartitionId k,
                                    const uint32_t* neighbor_counts,
                                    const uint64_t* loads,
                                    const double* weights,
                                    const double* capacity,
                                    const GreedyObjective& obj,
                                    uint64_t* tie_breaks) {
  PartitionId best = kInvalidPartition;
  double best_score = kNegInf;
  uint64_t best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    if (size + 1.0 > capacity[i]) continue;  // hard balance constraint
    const double sc =
        GreedyScore(obj, neighbor_counts[i], size, capacity[i], weights[i]);
    if (sc > best_score) {
      best_score = sc;
      best = i;
      best_load = loads[i];
    } else if (sc == best_score && loads[i] < best_load) {
      ++*tie_breaks;
      best = i;
      best_load = loads[i];
    }
  }
  return best;
}

/// Ginger's Equation (8) score of one candidate: neighbour count minus the
/// FENNEL γ-power penalty on the combined load.
inline double GingerScore(uint32_t count, double combined_load, double alpha,
                          double gamma) {
  return static_cast<double>(count) - alpha * gamma * std::sqrt(combined_load);
}

/// Ginger pick over caller-materialized combined loads ½(|P_v| +
/// (n/m)|P_e|)/w (Equation 8 through FENNEL's γ = 1.5 marginal-cost
/// form); candidates at or above the combined capacity are skipped, ties
/// toward the smaller combined load.
inline PartitionId GingerPickScalar(PartitionId k,
                                    const uint32_t* neighbor_counts,
                                    const double* combined_loads,
                                    double combined_capacity, double alpha,
                                    double gamma, uint64_t* tie_breaks) {
  PartitionId best = kInvalidPartition;
  double best_score = kNegInf;
  double best_load = 0;
  for (PartitionId i = 0; i < k; ++i) {
    const double load = combined_loads[i];
    if (load >= combined_capacity) continue;
    const double sc = GingerScore(neighbor_counts[i], load, alpha, gamma);
    if (sc > best_score || (sc == best_score && load < best_load)) {
      if (sc == best_score) ++*tie_breaks;
      best_score = sc;
      best = i;
      best_load = load;
    }
  }
  return best;
}

// -----------------------------------------------------------------------
// Sparse vertex-greedy pick (kFast for LDG, FENNEL, their restreaming
// variants, Ginger phase 1 and the sharded LDG/FENNEL driver; DESIGN.md
// §11).
//
// The scalar scans above select the lexicographic best of (score ↓,
// tie load ↑, id ↑) over the eligible partitions whose score is > −∞.
// A partition with no neighbour of v scores from its own load alone — its
// "zero key". Every other partition's real score is ≥ its zero score under
// IEEE rounding (c − x ≥ 0 − x and c·f ≥ 0·f for c ≥ 0, f ≥ 0), so no
// untouched partition can beat the best zero key. The winner is therefore
// the best of the tournament tree's top and the touched partitions scored
// with their real counts: O(|touched| + log k) per vertex instead of O(k).
// -----------------------------------------------------------------------

/// True when key a = (score_a, tie_a, a) precedes key b in the pick order:
/// higher score, then lower tie load, then lower id.
inline bool KeyBefore(double score_a, double tie_a, PartitionId a,
                      double score_b, double tie_b, PartitionId b) {
  if (score_a != score_b) return score_a > score_b;
  if (tie_a != tie_b) return tie_a < tie_b;
  return a < b;
}

/// Zero-neighbour key of one partition: its score with no neighbours
/// (−∞ when ineligible) and the load its ties are broken on.
struct LeafKey {
  double score;
  double tie;
};

/// LDG/FENNEL zero key: GreedyScore with count 0, −∞ at capacity, ties on
/// the integer load (exact in a double below 2^53).
inline LeafKey GreedyZeroKey(const GreedyObjective& obj, uint64_t load,
                             double capacity, double weight) {
  const double size = static_cast<double>(load);
  return {size + 1.0 > capacity ? kNegInf
                                : GreedyScore(obj, 0, size, capacity, weight),
          size};
}

/// Ginger zero key: 0 − αγ·√load, −∞ at or above the combined capacity,
/// ties on the combined load.
inline LeafKey GingerZeroKey(double combined_load, double combined_capacity,
                             double alpha, double gamma) {
  return {combined_load >= combined_capacity
              ? kNegInf
              : GingerScore(0, combined_load, alpha, gamma),
          combined_load};
}

/// Tournament tree over the k zero keys: node i holds the best partition
/// of its subtree, leaves sit at [k, 2k) (node k + p is partition p), and
/// node 1 is the best overall. The order is a strict total order, so the
/// shape of the implicit tree cannot change the winner.
class ZeroKeyTree {
 public:
  /// Rebuilds every leaf from key(p) → LeafKey: O(k). Called once per
  /// pass (restreaming anneals α) or per sharded worker interval.
  template <typename KeyFn>
  void Build(PartitionId k, KeyFn&& key) {
    k_ = k;
    keys_.resize(k);
    node_.resize(2 * static_cast<size_t>(k));
    for (PartitionId p = 0; p < k; ++p) {
      keys_[p] = key(p);
      node_[k + p] = p;
    }
    for (size_t i = k; i-- > 1;) {
      node_[i] = Better(node_[2 * i], node_[2 * i + 1]);
    }
  }

  /// Replaces leaf p's key and replays its path to the root, O(log k).
  /// The replay stops at the first node whose winner is unchanged and is
  /// not p: that node's (id, key) is what it was, so no ancestor can
  /// change. A placement only worsens p's key, so unless p led its
  /// subtree the replay ends one level up.
  void Update(PartitionId p, LeafKey key) {
    keys_[p] = key;
    for (size_t i = (static_cast<size_t>(k_) + p) >> 1; i >= 1; i >>= 1) {
      const PartitionId winner = Better(node_[2 * i], node_[2 * i + 1]);
      if (winner == node_[i] && winner != p) return;
      node_[i] = winner;
    }
  }

  PartitionId top() const { return node_[1]; }
  const LeafKey& key(PartitionId p) const { return keys_[p]; }

  /// The sparse pick: the best of the tree top and every touched
  /// partition under its real score `real_score(p)`; kInvalidPartition
  /// when the best score is −∞ (every partition ineligible). A touched
  /// partition whose zero key is −∞ is ineligible and skipped.
  template <typename RealScoreFn>
  PartitionId Pick(std::span<const PartitionId> touched,
                   RealScoreFn&& real_score) const {
    PartitionId best = top();
    double best_score = keys_[best].score;
    double best_tie = keys_[best].tie;
    for (PartitionId p : touched) {
      const LeafKey& zero = keys_[p];
      if (zero.score == kNegInf) continue;
      const double sc = real_score(p);
      if (KeyBefore(sc, zero.tie, p, best_score, best_tie, best)) {
        best = p;
        best_score = sc;
        best_tie = zero.tie;
      }
    }
    return best_score == kNegInf ? kInvalidPartition : best;
  }

 private:
  PartitionId Better(PartitionId a, PartitionId b) const {
    return KeyBefore(keys_[a].score, keys_[a].tie, a, keys_[b].score,
                     keys_[b].tie, b)
               ? a
               : b;
  }

  PartitionId k_ = 0;
  std::vector<LeafKey> keys_;
  std::vector<PartitionId> node_;  // [1, k) internal winners, [k, 2k) leaves
};

/// Sparse LDG/FENNEL pick: selection equals GreedyPickScalar's over the
/// loads `tree` was built and updated from.
inline PartitionId GreedyPickSparse(const ZeroKeyTree& tree,
                                    std::span<const PartitionId> touched,
                                    const uint32_t* neighbor_counts,
                                    const uint64_t* loads,
                                    const double* weights,
                                    const double* capacity,
                                    const GreedyObjective& obj) {
  return tree.Pick(touched, [&](PartitionId p) {
    return GreedyScore(obj, neighbor_counts[p], static_cast<double>(loads[p]),
                       capacity[p], weights[p]);
  });
}

/// Sparse Ginger pick: selection equals GingerPickScalar's over the
/// combined loads `tree` holds as tie keys.
inline PartitionId GingerPickSparse(const ZeroKeyTree& tree,
                                    std::span<const PartitionId> touched,
                                    const uint32_t* neighbor_counts,
                                    double alpha, double gamma) {
  return tree.Pick(touched, [&](PartitionId p) {
    return GingerScore(neighbor_counts[p], tree.key(p).tie, alpha, gamma);
  });
}

/// Least effectively-loaded partition with room for one more element
/// (ties toward the lower id); 0 when every partition is at capacity —
/// the edge-stream greedy family's placement rule.
inline PartitionId LeastLoadedWithRoom(PartitionId k, const uint64_t* loads,
                                       const double* weights,
                                       const double* capacity) {
  PartitionId best = kInvalidPartition;
  for (PartitionId i = 0; i < k; ++i) {
    if (static_cast<double>(loads[i]) + 1.0 > capacity[i]) continue;
    if (best == kInvalidPartition ||
        static_cast<double>(loads[i]) / weights[i] <
            static_cast<double>(loads[best]) / weights[best]) {
      best = i;
    }
  }
  return best == kInvalidPartition ? 0 : best;
}

/// Least effectively-loaded partition over all k, no capacity check (the
/// all-at-capacity fallback of the greedy edge-cut family).
inline PartitionId LeastLoadedAll(PartitionId k, const uint64_t* loads,
                                  const double* weights) {
  PartitionId best = 0;
  for (PartitionId i = 1; i < k; ++i) {
    if (static_cast<double>(loads[i]) / weights[i] <
        static_cast<double>(loads[best]) / weights[best]) {
      best = i;
    }
  }
  return best;
}

/// Least effectively-loaded partition among the set bits of `row` (ties
/// toward the lower id — ascending bit order plus a strict compare). The
/// caller guarantees at least one bit is set below k.
inline PartitionId LeastLoadedOverBits(PartitionId k, const uint64_t* loads,
                                       const double* weights,
                                       MembershipRow row,
                                       uint64_t* bitset_hits) {
  PartitionId best = kInvalidPartition;
  double best_load = 0;
  uint64_t hits = 0;
  const uint64_t num_words = (static_cast<uint64_t>(k) + 63) / 64;
  for (uint64_t w = 0; w < num_words; ++w) {
    uint64_t bits = row.Word(w);
    hits += static_cast<uint64_t>(std::popcount(bits));
    while (bits != 0) {
      const PartitionId p = static_cast<PartitionId>(
          w * 64 + static_cast<uint32_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const double load = static_cast<double>(loads[p]) / weights[p];
      if (best == kInvalidPartition || load < best_load) {
        best = p;
        best_load = load;
      }
    }
  }
  *bitset_hits += hits;
  return best;
}

/// Word-wise intersection of two combined membership rows.
inline void IntersectRows(PartitionId k, MembershipRow a, MembershipRow b,
                          uint64_t* out, bool* any) {
  const uint64_t num_words = (static_cast<uint64_t>(k) + 63) / 64;
  uint64_t nonzero = 0;
  for (uint64_t w = 0; w < num_words; ++w) {
    out[w] = a.Word(w) & b.Word(w);
    nonzero |= out[w];
  }
  *any = nonzero != 0;
}

// -----------------------------------------------------------------------
// kFast kernel dispatch (ScoreMode::kFast, partition/score_simd.cc).
//
// Two tiers behind one dispatch point: hand-written AVX2 intrinsics
// (score_simd_avx2.cc, selected at runtime via __builtin_cpu_supports) and
// the batched kernels above, the fallback on every other host. Both tiers
// — and both relative to kReference — produce bit-identical selections:
// every FP expression keeps the exact operation order of the scalar
// reference (no FMA contraction: the AVX2 unit is built with -mavx2 only
// plus -ffp-contract=off), and the AVX2 argmax reductions resolve ties
// with the full canonical rule (equal score → lighter load → lower id),
// applied lane-wise and again at the cross-lane/tail merge.
//
// Counter policy: tie-break audit counters are inherently sequential
// (they count prefix-argmax replacements) and cannot be reproduced by a
// fused SIMD reduction, so kFast increments *no* tie counters on either
// tier; batches / candidates / bitset_hits are computed identically on
// both, keeping every deterministic counter ISA-independent.
//
// The vertex-greedy family has no dense kernel here: its kFast picks are
// the sparse picks above, the same on every tier.
//
// Precondition (holds for every caller in this repo): partition loads
// < 2^52 (exact u64→double magic conversion).
// -----------------------------------------------------------------------

enum class KernelTier {
  kBatched,  // the batched word-at-a-time kernels above, any ISA
  kAvx2,     // AVX2 intrinsics (x86-64 with runtime avx2 support)
};

/// Human-readable tier name ("batched" / "avx2").
std::string_view KernelTierName(KernelTier tier);

/// True when `tier` can execute on this machine (kBatched always can).
bool KernelTierAvailable(KernelTier tier);

/// Best available tier, honoring the SGP_FORCE_SCALAR_DISPATCH env
/// override (any non-empty value other than "0" pins kBatched, so
/// sanitizer runs can exercise the fallback tier on AVX2 hardware).
/// Re-read per call — it is consulted once per partitioner run.
KernelTier ActiveKernelTier();

/// HDRF candidate sweep on `tier`: same scores, selection and bitset-hit
/// audit as HdrfPickBatched, no tie audit. A forced kAvx2 on a host
/// without AVX2 runs the batched kernel, here and in the scans below.
PartitionId HdrfPickFast(KernelTier tier, PartitionId k,
                         const double* effective, const uint64_t* loads,
                         MembershipRow u_row, MembershipRow v_row,
                         double theta_u, double theta_v, double lambda,
                         double max_load, double spread,
                         uint64_t* bitset_hits);

/// Least-effectively-loaded-with-room scan on `tier`; matches
/// LeastLoadedWithRoom (0 when every partition is at capacity).
PartitionId LeastLoadedWithRoomFast(KernelTier tier, PartitionId k,
                                    const uint64_t* loads,
                                    const double* weights,
                                    const double* capacity);

/// Least-effectively-loaded scan over all k on `tier`; matches
/// LeastLoadedAll.
PartitionId LeastLoadedAllFast(KernelTier tier, PartitionId k,
                               const uint64_t* loads, const double* weights);

}  // namespace score

/// Edges of lookahead in the chunked scoring loops: while edge i is being
/// scored, the degree entries and bit-matrix rows of edge i+8 are pulled
/// toward the cache. 8 edges ≈ the latency of one k-way sweep.
inline constexpr size_t kScorePrefetchAhead = 8;

/// Per-run scoring context: binds a PartitionState, the mode, the scratch
/// (intersection words, the vertex-greedy zero-key tree) and the decision
/// counters; under kFast it enables the replica bit index and resolves
/// the kernel tier once, at construction. Flushes partition.score.* on
/// destruction.
class ScoreCore {
 public:
  ScoreCore(PartitionState& state, ScoreMode mode);
  ~ScoreCore() { FlushScoreCoreStats(stats_); }

  ScoreCore(const ScoreCore&) = delete;
  ScoreCore& operator=(const ScoreCore&) = delete;

  ScoreMode mode() const { return mode_; }
  ScoreCoreStats& stats() { return stats_; }

  /// Marks one batch of stream elements entering the scorer (callers that
  /// drive per-element picks, e.g. the vertex-greedy gather loop, call it
  /// once per source chunk).
  void NoteBatch() { ++stats_.batches; }

  // ---------------------------------------------------------------------
  // HDRF (Section 4.2.2): full state transition per edge — partial-degree
  // updates, scoring, load + effective-load update, replica adds. The
  // state must have degree table, effective loads and replica sets
  // initialized and covering every endpoint of `chunk`. Shared by
  // HdrfPartitioner (in-memory graphs) and the disk ingest path, so both
  // place edges identically.
  // ---------------------------------------------------------------------
  template <typename PlaceFn>
  void PlaceHdrfChunk(std::span<const StreamEdge> chunk, double lambda,
                      HdrfStats& stats, PlaceFn&& place) {
    ++stats_.batches;
    const PartitionId k = state_.k();
    stats_.candidates += static_cast<uint64_t>(chunk.size()) * k;
    if (mode_ == ScoreMode::kReference) {
      for (const StreamEdge& e : chunk) {
        place(e, PlaceHdrfEdgeScalar(e.src, e.dst, lambda, stats));
      }
      return;
    }
    stats_.simd_picks += static_cast<uint64_t>(chunk.size());
    ReplicaState& replicas = state_.replicas();
    const double* effective = state_.effective().data();
    const uint64_t* loads = state_.loads().data();
    // Every endpoint of the chunk is covered (callers EnsureVertex the
    // whole chunk up front), so degree entries and bit-matrix rows are
    // stable addresses we can pull in ahead of their edge.
    const uint32_t* degrees = state_.degrees().data();
    for (size_t idx = 0; idx < chunk.size(); ++idx) {
      if (idx + kScorePrefetchAhead < chunk.size()) {
        const StreamEdge& f = chunk[idx + kScorePrefetchAhead];
        __builtin_prefetch(&degrees[f.src], 1, 1);
        __builtin_prefetch(&degrees[f.dst], 1, 1);
        __builtin_prefetch(replicas.RowWords(f.src), 1, 1);
        __builtin_prefetch(replicas.RowWords(f.dst), 1, 1);
      }
      const StreamEdge& e = chunk[idx];
      const VertexId u = e.src;
      const VertexId v = e.dst;
      stats.degree_hits += (state_.degree(u) > 0) + (state_.degree(v) > 0);
      state_.IncrementDegree(u);
      state_.IncrementDegree(v);
      const double du = state_.degree(u);
      const double dv = state_.degree(v);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      // The state tracks max/min effective load incrementally; the
      // reference path keeps the O(k) EffectiveSpread scan as its oracle.
      const PartitionId best = score::HdrfPickFast(
          tier_, k, effective, loads, {replicas.RowWords(u), nullptr},
          {replicas.RowWords(v), nullptr}, theta_u, theta_v, lambda,
          state_.max_effective(), state_.effective_spread(),
          &stats_.bitset_hits);
      state_.AddLoadUpdatingEffective(best);
      replicas.Add(u, best);
      replicas.Add(v, best);
      place(e, best);
    }
  }

  /// Reference single-edge HDRF transition (the pre-ScoreCore
  /// PlaceHdrfEdge, per-candidate Contains probes).
  PartitionId PlaceHdrfEdgeScalar(VertexId u, VertexId v, double lambda,
                                  HdrfStats& stats);

  // ---------------------------------------------------------------------
  // PowerGraph greedy: intersection-first replica-set placement.
  // `ext_degree(v)` is the full degree of v in the input (the busier-
  // endpoint rule compares remaining = full − placed degrees).
  // ---------------------------------------------------------------------
  template <typename ExtDegreeFn, typename PlaceFn>
  void PlacePggChunk(std::span<const StreamEdge> chunk,
                     ExtDegreeFn&& ext_degree, PlaceFn&& place) {
    ++stats_.batches;
    const PartitionId k = state_.k();
    ReplicaState& replicas = state_.replicas();
    const uint64_t* loads = state_.loads().data();
    const double* weights = state_.weights().data();
    // Every set bit scanned is both a bitset hit and an evaluated
    // candidate, so candidates ride on the hit counter's delta.
    auto pick_over = [&](score::MembershipRow row) {
      const uint64_t before = stats_.bitset_hits;
      const PartitionId t = score::LeastLoadedOverBits(k, loads, weights, row,
                                                       &stats_.bitset_hits);
      stats_.candidates += stats_.bitset_hits - before;
      return t;
    };
    // kFast runs the batched bit scans on every tier: PGG scans sparse
    // replica sets (≤ a handful of set bits), where the word-at-a-time
    // bit scan beats any dense k-lane sweep.
    for (size_t idx = 0; idx < chunk.size(); ++idx) {
      if (mode_ == ScoreMode::kFast &&
          idx + kScorePrefetchAhead < chunk.size()) {
        const StreamEdge& f = chunk[idx + kScorePrefetchAhead];
        __builtin_prefetch(replicas.RowWords(f.src), 1, 1);
        __builtin_prefetch(replicas.RowWords(f.dst), 1, 1);
      }
      const StreamEdge& e = chunk[idx];
      const VertexId u = e.src;
      const VertexId v = e.dst;
      PartitionId target;
      if (mode_ == ScoreMode::kReference) {
        target = PickPggScalar(u, v, ext_degree(u), ext_degree(v));
      } else {
        const bool u_empty = replicas.Of(u).empty();
        const bool v_empty = replicas.Of(v).empty();
        const score::MembershipRow row_u{replicas.RowWords(u), nullptr};
        const score::MembershipRow row_v{replicas.RowWords(v), nullptr};
        if (!u_empty && !v_empty) {
          bool any = false;
          score::IntersectRows(k, row_u, row_v, inter_words_.data(), &any);
          if (any) {
            target = pick_over({inter_words_.data(), nullptr});
          } else {
            // Disjoint replica sets: place with the replicas of the
            // endpoint that has more unplaced edges left.
            const bool u_busier =
                static_cast<int64_t>(ext_degree(u)) - state_.degree(u) >=
                static_cast<int64_t>(ext_degree(v)) - state_.degree(v);
            target = pick_over(u_busier ? row_u : row_v);
          }
        } else if (!u_empty) {
          target = pick_over(row_u);
        } else if (!v_empty) {
          target = pick_over(row_v);
        } else {
          stats_.candidates += k;
          target = state_.LeastLoaded();
        }
      }
      place(e, target);
      state_.AddLoad(target);
      state_.IncrementDegree(u);
      state_.IncrementDegree(v);
      replicas.Add(u, target);
      replicas.Add(v, target);
    }
  }

  // ---------------------------------------------------------------------
  // Vertex-greedy family (LDG / FENNEL / re-streaming): the caller
  // gathers |P ∩ N(u)| into a dense scratch, listing the partitions it
  // touched, and the core picks. kReference scans all k partitions;
  // kFast runs the sparse pick over the touched partitions and the
  // zero-key tree, which follows every load move made through
  // AddGreedyLoad / RemoveGreedyLoad. kInvalidPartition when every
  // partition is at capacity.
  // ---------------------------------------------------------------------

  /// Starts one pass over the vertex stream under `objective` (restreaming
  /// anneals α per pass, so kFast rebuilds the tree here).
  void BeginGreedyPass(const score::GreedyObjective& objective);

  PartitionId PickGreedyVertex(const uint32_t* neighbor_counts,
                               std::span<const PartitionId> touched,
                               uint64_t* tie_breaks) {
    if (mode_ == ScoreMode::kReference) {
      stats_.candidates += state_.k();
      return score::GreedyPickScalar(
          state_.k(), neighbor_counts, state_.loads().data(),
          state_.weights().data(), state_.capacities().data(), greedy_,
          tie_breaks);
    }
    stats_.candidates += touched.size() + 1;
    ++stats_.simd_picks;
    return score::GreedyPickSparse(tree_, touched, neighbor_counts,
                                   state_.loads().data(),
                                   state_.weights().data(),
                                   state_.capacities().data(), greedy_);
  }

  void AddGreedyLoad(PartitionId p) {
    state_.AddLoad(p);
    if (mode_ == ScoreMode::kFast) RefreshGreedyLeaf(p);
  }
  void RemoveGreedyLoad(PartitionId p) {
    state_.RemoveLoad(p);
    if (mode_ == ScoreMode::kFast) RefreshGreedyLeaf(p);
  }

  // ---------------------------------------------------------------------
  // Ginger (Equation 8) over caller-owned combined loads: the caller
  // reports every combined-load change through UpdateGingerLoad.
  // ---------------------------------------------------------------------
  void BeginGingerPass(const double* combined_loads, double combined_capacity,
                       double alpha, double gamma);

  PartitionId PickGingerVertex(const uint32_t* neighbor_counts,
                               std::span<const PartitionId> touched,
                               const double* combined_loads,
                               uint64_t* tie_breaks) {
    if (mode_ == ScoreMode::kReference) {
      stats_.candidates += state_.k();
      return score::GingerPickScalar(state_.k(), neighbor_counts,
                                     combined_loads, ginger_capacity_,
                                     ginger_alpha_, ginger_gamma_, tie_breaks);
    }
    stats_.candidates += touched.size() + 1;
    ++stats_.simd_picks;
    return score::GingerPickSparse(tree_, touched, neighbor_counts,
                                   ginger_alpha_, ginger_gamma_);
  }

  void UpdateGingerLoad(PartitionId p, double combined_load) {
    if (mode_ == ScoreMode::kFast) {
      tree_.Update(p, score::GingerZeroKey(combined_load, ginger_capacity_,
                                           ginger_alpha_, ginger_gamma_));
    }
  }

  /// Edge-stream greedy placement rule: least effectively-loaded
  /// partition with room, 0 when all are full.
  PartitionId PickLeastLoadedWithRoom() {
    stats_.candidates += state_.k();
    if (mode_ == ScoreMode::kReference) {
      return score::LeastLoadedWithRoom(state_.k(), state_.loads().data(),
                                        state_.weights().data(),
                                        state_.capacities().data());
    }
    ++stats_.simd_picks;
    return score::LeastLoadedWithRoomFast(
        tier_, state_.k(), state_.loads().data(), state_.weights().data(),
        state_.capacities().data());
  }

  /// All-at-capacity fallback: least effective load, no caps.
  PartitionId PickLeastLoadedAll() {
    stats_.candidates += state_.k();
    if (mode_ == ScoreMode::kReference) {
      return score::LeastLoadedAll(state_.k(), state_.loads().data(),
                                   state_.weights().data());
    }
    ++stats_.simd_picks;
    return score::LeastLoadedAllFast(tier_, state_.k(), state_.loads().data(),
                                     state_.weights().data());
  }

 private:
  PartitionId PickPggScalar(VertexId u, VertexId v, uint32_t ext_degree_u,
                            uint32_t ext_degree_v);
  void RefreshGreedyLeaf(PartitionId p) {
    tree_.Update(p, score::GreedyZeroKey(greedy_, state_.load(p),
                                         state_.capacity(p),
                                         state_.weights()[p]));
  }

  PartitionState& state_;
  ScoreMode mode_;
  score::KernelTier tier_ = score::KernelTier::kBatched;  // kFast only
  ScoreCoreStats stats_;
  score::ZeroKeyTree tree_;           // kFast vertex-greedy / Ginger picks
  score::GreedyObjective greedy_;     // objective of the current pass
  double ginger_capacity_ = 0;
  double ginger_alpha_ = 0;
  double ginger_gamma_ = 0;
  std::vector<uint64_t> inter_words_; // intersection scratch, ceil(k/64)
  std::vector<PartitionId> all_;      // [0, k), the scalar PGG cold set
  std::vector<PartitionId> inter_;    // scalar PGG intersection scratch
};

}  // namespace sgp

#endif  // SGP_PARTITION_SCORE_CORE_H_

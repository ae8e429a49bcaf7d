// ScoreCore suite: the bit-packed membership structures, the batched and
// AVX2 scoring kernels and the sparse vertex-greedy pick against their
// scalar references, and end-to-end
// reference-vs-fast equivalence for every partitioner family —
// sequential, sharded parallel, and the vertex-discovering ingest path.
// The fast mode is only allowed to be faster, never different
// (DESIGN.md §Score core). The kernel sweeps run on every tier the host
// supports (the batched kernels always, AVX2 when present), and the
// end-to-end checks run kFast on both the hardware tier and the forced
// batched tier, so one test binary pins tier-vs-tier agreement too.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include "common/dense_bitset.h"
#include "graph/datasets.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"
#include "partition/vertexcut/replica_state.h"
#include "stream/source.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

using testing::ForEachDispatchTier;
using testing::ScopedDispatchOverride;

// Every kernel tier the host can execute: kBatched always, kAvx2 when the
// CPU has it. Forcing an unavailable tier is also legal (the kernels
// degrade to batched), so the sweeps exercise both enumerated tiers.
std::vector<score::KernelTier> AvailableTiers() {
  std::vector<score::KernelTier> tiers = {score::KernelTier::kBatched};
  if (score::KernelTierAvailable(score::KernelTier::kAvx2)) {
    tiers.push_back(score::KernelTier::kAvx2);
  }
  return tiers;
}

TEST(DenseBitsetTest, SetTestResetPopcount) {
  DenseBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.num_words(), 3u);
  EXPECT_EQ(b.Popcount(), 0u);
  for (uint64_t i : {0u, 63u, 64u, 127u, 129u}) {
    EXPECT_FALSE(b.Test(i));
    b.Set(i);
    EXPECT_TRUE(b.Test(i));
  }
  EXPECT_EQ(b.Popcount(), 5u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Popcount(), 4u);
  b.Clear();
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(DenseBitsetTest, ResizeExposesZeroBits) {
  DenseBitset b(10);
  b.Set(9);
  b.Resize(200);
  EXPECT_TRUE(b.Test(9));
  for (uint64_t i = 10; i < 200; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitMatrixTest, RowsAreIndependentWordSpans) {
  BitMatrix m(3, 70);  // two words per row
  EXPECT_EQ(m.words_per_row(), 2u);
  m.Set(0, 0);
  m.Set(1, 69);
  m.Set(2, 64);
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_FALSE(m.Test(0, 69));
  EXPECT_TRUE(m.Test(1, 69));
  EXPECT_EQ(m.Row(1)[1], uint64_t{1} << 5);
  EXPECT_EQ(m.Row(0)[1], 0u);
  m.ClearRow(1);
  EXPECT_FALSE(m.Test(1, 69));
  EXPECT_TRUE(m.Test(2, 64));
}

TEST(BitMatrixTest, EnsureRowsGrowsZeroed) {
  BitMatrix m(1, 10);
  m.Set(0, 3);
  m.EnsureRows(5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_TRUE(m.Test(0, 3));
  for (uint64_t r = 1; r < 5; ++r) {
    for (uint32_t c = 0; c < 10; ++c) EXPECT_FALSE(m.Test(r, c));
  }
}

TEST(BitMatrixTest, CacheBlockedLayout) {
  // Stride policy: power of two up to a full 8-word cache line, whole
  // lines beyond; words_per_row() stays the logical ceil(cols/64).
  const struct {
    uint32_t cols;
    uint64_t wpr;
    uint64_t stride;
  } cases[] = {{1, 1, 1},    {64, 1, 1},   {65, 2, 2},   {128, 2, 2},
               {129, 3, 4},  {256, 4, 4},  {257, 5, 8},  {512, 8, 8},
               {513, 9, 16}, {700, 11, 16}};
  for (const auto& c : cases) {
    BitMatrix m(5, c.cols);
    EXPECT_EQ(m.words_per_row(), c.wpr) << "cols=" << c.cols;
    EXPECT_EQ(m.row_stride(), c.stride) << "cols=" << c.cols;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "base must be cache-line aligned, cols=" << c.cols;
    // Bits survive growth and the realigned base stays aligned.
    m.Set(3, c.cols - 1);
    m.EnsureRows(100);
    EXPECT_TRUE(m.Test(3, c.cols - 1)) << "cols=" << c.cols;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "cols=" << c.cols;
    EXPECT_FALSE(m.Test(99, 0));
  }
}

TEST(ReplicaStateTest, SpilledSetsAreSortedAndBinarySearchable) {
  ReplicaState rs(2);
  // Insert out of order, past the inline capacity.
  const std::vector<PartitionId> parts = {90, 3, 57, 120, 8, 41, 0};
  for (PartitionId p : parts) rs.Add(0, p);
  ASSERT_GT(parts.size(), ReplicaState::kInline);
  auto items = rs.Of(0);
  ASSERT_EQ(items.size(), parts.size());
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1], items[i]) << "spilled set must stay sorted";
  }
  for (PartitionId p : parts) EXPECT_TRUE(rs.Contains(0, p));
  for (PartitionId p : {1u, 58u, 127u}) EXPECT_FALSE(rs.Contains(0, p));
  // Idempotent re-adds don't grow the set.
  rs.Add(0, 57);
  EXPECT_EQ(rs.Of(0).size(), parts.size());
  EXPECT_TRUE(rs.Of(1).empty());
}

TEST(ReplicaStateTest, BitIndexMirrorsMembership) {
  const PartitionId k = 130;
  ReplicaState rs(3);
  rs.Add(0, 5);
  rs.Add(0, 129);
  rs.Add(1, 64);
  // Enabling on a populated table replays existing entries.
  rs.EnableBitIndex(k);
  auto row_matches = [&](VertexId u) {
    const uint64_t* row = rs.RowWords(u);
    for (PartitionId p = 0; p < k; ++p) {
      const bool bit = (row[p >> 6] >> (p & 63)) & 1u;
      if (bit != rs.Contains(u, p)) return false;
    }
    return true;
  };
  EXPECT_TRUE(row_matches(0));
  EXPECT_TRUE(row_matches(1));
  EXPECT_TRUE(row_matches(2));
  // Later adds and vertex growth keep both views in sync.
  rs.Add(2, 7);
  rs.EnsureVertex(10);
  rs.Add(10, 99);
  for (VertexId u : {0u, 1u, 2u, 10u}) EXPECT_TRUE(row_matches(u));
  // Spill vertex 0 past the inline capacity.
  for (PartitionId p : {20u, 40u, 60u, 80u, 100u}) rs.Add(0, p);
  EXPECT_TRUE(row_matches(0));
  rs.Clear(0);
  EXPECT_TRUE(row_matches(0));
  EXPECT_TRUE(rs.Of(0).empty());
}

// ---------------------------------------------------------------------
// Kernel properties: batched == scalar on randomized states, including
// tie-breaks.
// ---------------------------------------------------------------------

TEST(ScoreKernelTest, HdrfBatchedMatchesContainsProbes) {
  std::mt19937_64 rng(13);
  for (PartitionId k : {1u, 3u, 64u, 65u, 130u}) {
    const uint64_t words = (static_cast<uint64_t>(k) + 63) / 64;
    std::vector<double> effective(k);
    std::vector<uint64_t> loads(k);
    std::vector<uint64_t> row_u(words), row_v(words);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 5;
        effective[i] = static_cast<double>(loads[i]);
      }
      for (uint64_t w = 0; w < words; ++w) {
        row_u[w] = rng();
        row_v[w] = rng();
      }
      // Mask bits at or above k, as the BitMatrix guarantees.
      if (k % 64 != 0) {
        const uint64_t mask = (uint64_t{1} << (k % 64)) - 1;
        row_u[words - 1] &= mask;
        row_v[words - 1] &= mask;
      }
      const double theta_u = 0.25, theta_v = 0.75, lambda = 1.1;
      double max_load, spread;
      score::EffectiveSpread(effective.data(), k, &max_load, &spread);
      uint64_t hits = 0;
      const PartitionId got = score::HdrfPickBatched(
          k, effective.data(), loads.data(), {row_u.data(), nullptr},
          {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
          spread, &hits);
      // Reference: the pre-refactor per-candidate probe loop.
      PartitionId best = 0;
      double best_score = score::kNegInf;
      auto test = [](const std::vector<uint64_t>& row, PartitionId p) {
        return (row[p >> 6] >> (p & 63)) & 1u;
      };
      for (PartitionId i = 0; i < k; ++i) {
        double g = 0;
        if (test(row_u, i)) g += 1.0 + theta_v;
        if (test(row_v, i)) g += 1.0 + theta_u;
        const double sc = g + lambda * (max_load - effective[i]) / spread;
        if (sc > best_score) {
          best_score = sc;
          best = i;
        } else if (sc == best_score && loads[i] < loads[best]) {
          best = i;
        }
      }
      ASSERT_EQ(got, best) << "k=" << k << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------------------------
// kFast dispatch: randomized reference-vs-fast sweeps at awkward k —
// below one lane group, one word ± one, and the multi-word regime —
// with and without heterogeneous capacities, on every available tier.
// ---------------------------------------------------------------------

TEST(ScoreKernelTest, HdrfFastMatchesBatchedAtAwkwardK) {
  std::mt19937_64 rng(23);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    const uint64_t words = (static_cast<uint64_t>(k) + 63) / 64;
    std::vector<double> effective(k);
    std::vector<uint64_t> loads(k);
    std::vector<uint64_t> row_u(words), row_v(words);
    for (int trial = 0; trial < 200; ++trial) {
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 5;
        effective[i] = static_cast<double>(loads[i]);
      }
      for (uint64_t w = 0; w < words; ++w) {
        row_u[w] = rng();
        row_v[w] = rng();
      }
      if (k % 64 != 0) {
        const uint64_t mask = (uint64_t{1} << (k % 64)) - 1;
        row_u[words - 1] &= mask;
        row_v[words - 1] &= mask;
      }
      const double theta_u = 0.25, theta_v = 0.75, lambda = 1.1;
      double max_load, spread;
      score::EffectiveSpread(effective.data(), k, &max_load, &spread);
      uint64_t want_hits = 0;
      const PartitionId want = score::HdrfPickBatched(
          k, effective.data(), loads.data(), {row_u.data(), nullptr},
          {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
          spread, &want_hits);
      for (score::KernelTier tier : AvailableTiers()) {
        uint64_t got_hits = 0;
        const PartitionId got = score::HdrfPickFast(
            tier, k, effective.data(), loads.data(), {row_u.data(), nullptr},
            {row_v.data(), nullptr}, theta_u, theta_v, lambda, max_load,
            spread, &got_hits);
        ASSERT_EQ(got, want) << "k=" << k << " trial=" << trial
                             << " tier=" << score::KernelTierName(tier);
        // The popcount accounting must be ISA-independent too.
        ASSERT_EQ(got_hits, want_hits)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::KernelTierName(tier);
      }
    }
  }
}

TEST(ScoreKernelTest, LeastLoadedFastMatchesScalarAtAwkwardK) {
  std::mt19937_64 rng(29);
  for (PartitionId k : {3u, 63u, 64u, 65u, 128u}) {
    std::vector<uint64_t> loads(k);
    std::vector<double> weights(k), capacity(k);
    for (int trial = 0; trial < 200; ++trial) {
      const bool hetero = trial % 2 == 1;
      for (PartitionId i = 0; i < k; ++i) {
        loads[i] = rng() % 6;  // collisions force effective-load ties
        weights[i] = hetero ? 1.0 + 0.5 * (rng() % 3) : 1.0;
        capacity[i] = 1.0 + static_cast<double>(rng() % 7);
      }
      const PartitionId want_room = score::LeastLoadedWithRoom(
          k, loads.data(), weights.data(), capacity.data());
      const PartitionId want_all =
          score::LeastLoadedAll(k, loads.data(), weights.data());
      for (score::KernelTier tier : AvailableTiers()) {
        ASSERT_EQ(score::LeastLoadedWithRoomFast(tier, k, loads.data(),
                                                 weights.data(),
                                                 capacity.data()),
                  want_room)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::KernelTierName(tier);
        ASSERT_EQ(score::LeastLoadedAllFast(tier, k, loads.data(),
                                            weights.data()),
                  want_all)
            << "k=" << k << " trial=" << trial
            << " tier=" << score::KernelTierName(tier);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Sparse vertex-greedy pick: the zero-key tournament tree plus the
// touched partitions must select exactly what the k-way scalar scans
// select, through randomized load moves (placements, restreaming
// removals, per-pass α changes), engineered score and load ties, and
// partitions at capacity up to the all-full case.
// ---------------------------------------------------------------------

enum class SparseKind { kLdg, kFennelSqrt, kFennelPow, kGinger };

const char* SparseKindName(SparseKind kind) {
  switch (kind) {
    case SparseKind::kLdg: return "LDG";
    case SparseKind::kFennelSqrt: return "FENNEL-sqrt";
    case SparseKind::kFennelPow: return "FENNEL-pow";
    case SparseKind::kGinger: return "Ginger";
  }
  return "?";
}

// One randomized state of the sparse-pick property test: integer loads,
// capacity weights and caps, a zero-key tree kept in step with every load
// move, and Ginger's combined loads ½·load/w (multiples of ¼ for the
// heterogeneous weights below, so combined-load ties are frequent).
class SparsePickHarness {
 public:
  SparsePickHarness(SparseKind kind, PartitionId k, bool hetero,
                    std::mt19937_64& rng)
      : kind_(kind), k_(k), loads_(k, 0), weights_(k), capacity_(k),
        combined_(k, 0.0), counts_(k, 0) {
    for (PartitionId i = 0; i < k; ++i) {
      weights_[i] = hetero ? 1.0 + 0.5 * static_cast<double>(rng() % 3) : 1.0;
      // Small caps: partitions fill up within a few hundred moves.
      capacity_[i] = 1.0 + static_cast<double>(rng() % 5) * weights_[i];
    }
    ginger_capacity_ = 0.5 + static_cast<double>(rng() % 4);
    obj_.ldg = kind == SparseKind::kLdg;
    obj_.gamma = kind == SparseKind::kFennelPow ? 2.0 : 1.5;
    obj_.sqrt_form = kind != SparseKind::kFennelPow;
    obj_.alpha = 0.75;
    Rebuild();
  }

  // A new pass: α grows (restreaming anneals it) and the tree is rebuilt.
  void NextPass() {
    obj_.alpha *= 1.5;
    Rebuild();
  }

  void AddLoad(PartitionId p) {
    ++loads_[p];
    Refresh(p);
  }
  void RemoveLoad(PartitionId p) {
    --loads_[p];
    Refresh(p);
  }
  uint64_t load(PartitionId p) const { return loads_[p]; }

  // Sets the neighbour histogram of the next vertex: `touched` in
  // first-touch order, each with a count ≥ 1.
  void SetCounts(const std::vector<PartitionId>& touched,
                 const std::vector<uint32_t>& counts) {
    for (PartitionId p : touched_) counts_[p] = 0;
    touched_ = touched;
    for (size_t j = 0; j < touched.size(); ++j) counts_[touched[j]] = counts[j];
  }

  PartitionId Scalar() const {
    uint64_t ties = 0;
    if (kind_ == SparseKind::kGinger) {
      return score::GingerPickScalar(k_, counts_.data(), combined_.data(),
                                     ginger_capacity_, obj_.alpha, 1.5,
                                     &ties);
    }
    return score::GreedyPickScalar(k_, counts_.data(), loads_.data(),
                                   weights_.data(), capacity_.data(), obj_,
                                   &ties);
  }

  PartitionId Sparse() const {
    if (kind_ == SparseKind::kGinger) {
      return score::GingerPickSparse(tree_, touched_, counts_.data(),
                                     obj_.alpha, 1.5);
    }
    return score::GreedyPickSparse(tree_, touched_, counts_.data(),
                                   loads_.data(), weights_.data(),
                                   capacity_.data(), obj_);
  }

 private:
  score::LeafKey Key(PartitionId p) const {
    if (kind_ == SparseKind::kGinger) {
      return score::GingerZeroKey(combined_[p], ginger_capacity_, obj_.alpha,
                                  1.5);
    }
    return score::GreedyZeroKey(obj_, loads_[p], capacity_[p], weights_[p]);
  }
  void Refresh(PartitionId p) {
    combined_[p] = 0.5 * static_cast<double>(loads_[p]) / weights_[p];
    tree_.Update(p, Key(p));
  }
  void Rebuild() {
    tree_.Build(k_, [&](PartitionId p) { return Key(p); });
  }

  SparseKind kind_;
  PartitionId k_;
  std::vector<uint64_t> loads_;
  std::vector<double> weights_, capacity_, combined_;
  double ginger_capacity_ = 0;
  score::GreedyObjective obj_;
  std::vector<uint32_t> counts_;
  std::vector<PartitionId> touched_;
  score::ZeroKeyTree tree_;
};

TEST(SparsePickTest, MatchesScalarScansThroughRandomLoadMoves) {
  for (SparseKind kind : {SparseKind::kLdg, SparseKind::kFennelSqrt,
                          SparseKind::kFennelPow, SparseKind::kGinger}) {
    for (PartitionId k : {1u, 2u, 3u, 63u, 64u, 65u, 128u, 512u}) {
      for (bool hetero : {false, true}) {
        std::mt19937_64 rng(1000003 * k + 31 * static_cast<int>(kind) +
                            hetero);
        SparsePickHarness h(kind, k, hetero, rng);
        // Enough moves to fill every cap (≤ 5·2 per partition) and then
        // drain and refill around the all-full state.
        const int steps = 400 + 12 * static_cast<int>(k);
        int all_full = 0;
        std::vector<PartitionId> touched;
        std::vector<uint32_t> counts;
        for (int step = 0; step < steps; ++step) {
          if (step > 0 && step % 250 == 0) h.NextPass();
          // Restreaming removal: a vertex leaves its partition.
          if (rng() % 4 == 0) {
            const PartitionId p = static_cast<PartitionId>(rng() % k);
            if (h.load(p) > 0) h.RemoveLoad(p);
          }
          // Neighbour histogram over up to 6 distinct partitions. Equal
          // counts on partitions of equal load engineer score ties that
          // only the load or id order can break.
          touched.clear();
          counts.clear();
          const size_t want = rng() % std::min<PartitionId>(k + 1, 7);
          const uint32_t shared_count = 1 + static_cast<uint32_t>(rng() % 3);
          const bool tie_counts = rng() % 2 == 0;
          for (size_t j = 0; j < want; ++j) {
            const PartitionId p = static_cast<PartitionId>(rng() % k);
            if (std::find(touched.begin(), touched.end(), p) !=
                touched.end()) {
              continue;
            }
            touched.push_back(p);
            counts.push_back(tie_counts
                                 ? shared_count
                                 : 1 + static_cast<uint32_t>(rng() % 3));
          }
          h.SetCounts(touched, counts);
          const PartitionId want_pick = h.Scalar();
          const PartitionId got = h.Sparse();
          ASSERT_EQ(got, want_pick)
              << SparseKindName(kind) << " k=" << k << " hetero=" << hetero
              << " step=" << step;
          if (want_pick == kInvalidPartition) {
            ++all_full;
            // Over-capacity fallback placement, as the drivers do.
            h.AddLoad(static_cast<PartitionId>(rng() % k));
          } else {
            h.AddLoad(want_pick);
          }
        }
        EXPECT_GT(all_full, 0) << SparseKindName(kind) << " k=" << k
                               << " hetero=" << hetero
                               << ": the all-full case was never reached";
      }
    }
  }
}

TEST(SparsePickTest, EngineeredTiesFollowLoadThenId) {
  const PartitionId k = 65;
  std::vector<uint64_t> loads(k, 2);
  std::vector<double> weights(k, 1.0), capacity(k, 10.0);
  std::vector<uint32_t> counts(k, 0);
  score::GreedyObjective ldg;
  score::ZeroKeyTree tree;
  auto rebuild = [&] {
    tree.Build(k, [&](PartitionId p) {
      return score::GreedyZeroKey(ldg, loads[p], capacity[p], weights[p]);
    });
  };
  auto pick = [&](std::vector<PartitionId> touched) {
    uint64_t ties = 0;
    const PartitionId want = score::GreedyPickScalar(
        k, counts.data(), loads.data(), weights.data(), capacity.data(), ldg,
        &ties);
    const PartitionId got = score::GreedyPickSparse(
        tree, touched, counts.data(), loads.data(), weights.data(),
        capacity.data(), ldg);
    EXPECT_EQ(got, want);
    return got;
  };
  rebuild();
  // No neighbours, equal loads: the lowest id.
  EXPECT_EQ(pick({}), 0u);
  // Equal zero scores, one lighter partition: the lighter one.
  loads[40] = 1;
  rebuild();
  EXPECT_EQ(pick({}), 40u);
  // Equal real scores on two touched partitions of equal load: lower id,
  // even when it is touched second.
  counts[9] = 2;
  counts[5] = 2;
  EXPECT_EQ(pick({9, 5}), 5u);
  // Equal real scores, the higher id lighter: load beats id.
  loads[9] = 1;
  tree.Update(9, score::GreedyZeroKey(ldg, loads[9], capacity[9], 1.0));
  EXPECT_EQ(pick({9, 5}), 9u);
  counts[9] = counts[5] = 0;
  // Every partition at capacity: no pick, with or without neighbours.
  std::fill(loads.begin(), loads.end(), 10);
  rebuild();
  counts[3] = 1;
  EXPECT_EQ(pick({3}), kInvalidPartition);
  // One partition regains room: it wins, untouched.
  loads[64] = 9;
  tree.Update(64, score::GreedyZeroKey(ldg, loads[64], capacity[64], 1.0));
  EXPECT_EQ(pick({3}), 64u);
}

// ---------------------------------------------------------------------
// Runtime dispatch: the env override forces the batched tier, forcing
// an unavailable tier degrades gracefully, and the end-to-end result is
// tier-independent.
// ---------------------------------------------------------------------

TEST(KernelDispatchTest, EnvOverrideForcesBatchedTier) {
  ASSERT_TRUE(score::KernelTierAvailable(score::KernelTier::kBatched));
  score::KernelTier unforced;
  {
    ScopedDispatchOverride scoped("1");
    EXPECT_EQ(score::ActiveKernelTier(), score::KernelTier::kBatched);
  }
  {
    // "0" and empty mean "not forced".
    ScopedDispatchOverride scoped("0");
    unforced = score::ActiveKernelTier();
  }
  {
    ScopedDispatchOverride scoped(nullptr);
    EXPECT_EQ(score::ActiveKernelTier(), unforced);
  }
  // Unforced dispatch picks the widest available tier.
  if (score::KernelTierAvailable(score::KernelTier::kAvx2)) {
    EXPECT_EQ(unforced, score::KernelTier::kAvx2);
  } else {
    EXPECT_EQ(unforced, score::KernelTier::kBatched);
  }
}

TEST(KernelDispatchTest, ForcedTiersAgreeEndToEnd) {
  // Run kFast through a full partitioner run on the forced batched tier
  // and on the hardware tier, and require the reference assignments.
  const Graph g = MakeDataset("twitter", 9);
  for (const char* algo : {"HDRF", "FNL", "HG"}) {
    PartitionConfig cfg;
    cfg.k = 65;
    cfg.seed = 7;
    cfg.score_mode = ScoreMode::kReference;
    const Partitioning want = CreatePartitioner(algo)->Run(g, cfg);
    cfg.score_mode = ScoreMode::kFast;
    ForEachDispatchTier([&](std::string_view tier) {
      Partitioning got = CreatePartitioner(algo)->Run(g, cfg);
      EXPECT_EQ(got.vertex_to_partition, want.vertex_to_partition)
          << algo << " tier=" << tier;
      EXPECT_EQ(got.edge_to_partition, want.edge_to_partition)
          << algo << " tier=" << tier;
    });
  }
}

TEST(ScoreKernelTest, LeastLoadedOverBitsTiesTowardLowerId) {
  const PartitionId k = 130;
  std::vector<uint64_t> loads(k, 5);
  std::vector<double> weights(k, 1.0);
  std::vector<uint64_t> row((k + 63) / 64, 0);
  auto set = [&](PartitionId p) { row[p >> 6] |= uint64_t{1} << (p & 63); };
  set(7);
  set(65);
  set(129);
  loads[65] = 2;
  loads[129] = 2;  // tie with 65 — lower id must win
  uint64_t hits = 0;
  EXPECT_EQ(score::LeastLoadedOverBits(k, loads.data(), weights.data(),
                                       {row.data(), nullptr}, &hits),
            65u);
  EXPECT_EQ(hits, 3u);
}

// ---------------------------------------------------------------------
// End-to-end: kReference and kFast, on both dispatch tiers, must produce
// byte-identical partitionings for every registered partitioner.
// ---------------------------------------------------------------------

TEST(ScoreModeEquivalenceTest, SequentialPartitioners) {
  const Graph g = MakeDataset("twitter", 10);
  for (const std::string& algo : PartitionerNames()) {
    for (PartitionId k : {3u, 65u}) {
      PartitionConfig cfg;
      cfg.k = k;
      cfg.seed = 42;
      cfg.score_mode = ScoreMode::kReference;
      Partitioning reference = CreatePartitioner(algo)->Run(g, cfg);
      cfg.score_mode = ScoreMode::kFast;
      ForEachDispatchTier([&](std::string_view tier) {
        Partitioning fast = CreatePartitioner(algo)->Run(g, cfg);
        EXPECT_EQ(reference.vertex_to_partition, fast.vertex_to_partition)
            << algo << " k=" << k << " tier=" << tier;
        EXPECT_EQ(reference.edge_to_partition, fast.edge_to_partition)
            << algo << " k=" << k << " tier=" << tier;
      });
    }
  }
}

TEST(ScoreModeEquivalenceTest, ShardedParallelDrivers) {
  const Graph g = MakeDataset("twitter", 10);
  for (ParallelAlgo algo : {ParallelAlgo::kLdg, ParallelAlgo::kFennel,
                            ParallelAlgo::kHdrf, ParallelAlgo::kPgg}) {
    for (uint32_t workers : {1u, 3u}) {
      for (PartitionId k : {8u, 65u}) {
        PartitionConfig cfg;
        cfg.k = k;
        cfg.seed = 42;
        ParallelStreamOptions options;
        options.num_streams = workers;
        options.sync_interval = 32;
        cfg.score_mode = ScoreMode::kReference;
        ParallelStreamResult reference =
            RunParallelStreaming(g, cfg, options, algo);
        cfg.score_mode = ScoreMode::kFast;
        ForEachDispatchTier([&](std::string_view tier) {
          ParallelStreamResult fast =
              RunParallelStreaming(g, cfg, options, algo);
          EXPECT_EQ(reference.partitioning.vertex_to_partition,
                    fast.partitioning.vertex_to_partition)
              << ParallelAlgoName(algo) << " w=" << workers << " k=" << k
              << " tier=" << tier;
          EXPECT_EQ(reference.partitioning.edge_to_partition,
                    fast.partitioning.edge_to_partition)
              << ParallelAlgoName(algo) << " w=" << workers << " k=" << k
              << " tier=" << tier;
        });
      }
    }
  }
}

TEST(ScoreModeEquivalenceTest, VertexDiscoveringIngest) {
  // The ingest path grows the id space (and the bit-index rows) as edges
  // arrive; both modes must still agree.
  const Graph g = MakeDataset("twitter", 10);
  for (PartitionId k : {3u, 65u}) {
    PartitionConfig cfg;
    cfg.k = k;
    cfg.seed = 42;
    cfg.ingest_chunk_size = 64;
    cfg.score_mode = ScoreMode::kReference;
    InMemoryEdgeSource source_a(g, StreamOrder::kRandom, cfg.seed,
                                cfg.ingest_chunk_size);
    StreamRunResult reference =
        CreatePartitioner("HDRF")->RunOnSource(source_a, cfg);
    ASSERT_TRUE(reference.ok);
    cfg.score_mode = ScoreMode::kFast;
    ForEachDispatchTier([&](std::string_view tier) {
      InMemoryEdgeSource source_b(g, StreamOrder::kRandom, cfg.seed,
                                  cfg.ingest_chunk_size);
      StreamRunResult fast =
          CreatePartitioner("HDRF")->RunOnSource(source_b, cfg);
      ASSERT_TRUE(fast.ok);
      EXPECT_EQ(reference.partitioning.edge_to_partition,
                fast.partitioning.edge_to_partition)
          << "k=" << k << " tier=" << tier;
      EXPECT_EQ(reference.partitioning.vertex_to_partition,
                fast.partitioning.vertex_to_partition)
          << "k=" << k << " tier=" << tier;
    });
  }
}

}  // namespace
}  // namespace sgp

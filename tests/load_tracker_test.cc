#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>
#include "common/dense_bitset.h"
#include "common/random.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/vertexcut/replica_state.h"

// The bookkeeping behind kFast HDRF-family placement: PartitionState's
// incremental max/min effective load (its EffectiveRange, the same
// tracker the sharded HDRF driver keeps per worker interval; checked bit
// for bit against the O(k) score::EffectiveSpread scan the reference path
// still runs),
// ReplicaState's bit-index early-out in Add (checked against a table
// without the index), and BitMatrix's geometric row growth.

namespace sgp {
namespace {

const PartitionId kPartitionCounts[] = {1, 2, 7, 64, 65, 200};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

::testing::AssertionResult MatchesScan(const PartitionState& s) {
  double max_load, spread;
  score::EffectiveSpread(s.effective().data(), s.k(), &max_load, &spread);
  if (Bits(max_load) != Bits(s.max_effective()) ||
      Bits(spread) != Bits(s.effective_spread())) {
    return ::testing::AssertionFailure()
           << "tracker (max " << s.max_effective() << ", spread "
           << s.effective_spread() << ") != scan (max " << max_load
           << ", spread " << spread << ")";
  }
  return ::testing::AssertionSuccess();
}

// Heterogeneous weights mix power-of-two ratios, whose effective loads
// tie exactly from different raw loads (1/w == 2/(2w)), with a 3.
PartitionConfig Config(PartitionId k, bool heterogeneous) {
  PartitionConfig config;
  config.k = k;
  if (heterogeneous) {
    const double pattern[] = {1.0, 2.0, 4.0, 0.5, 3.0};
    for (PartitionId i = 0; i < k; ++i) {
      config.capacity_weights.push_back(pattern[i % 5]);
    }
  }
  return config;
}

// Next partition to load: half the time one at the current minimum (so
// the at-min count drains and the min moves), a quarter of the time one
// at the maximum, otherwise any.
PartitionId NextPartition(const PartitionState& s, Rng& rng) {
  const std::vector<double>& eff = s.effective();
  const double roll = rng.UniformReal();
  if (roll < 0.75) {
    const bool at_min = roll < 0.5;
    double target = eff[0];
    for (double e : eff) {
      target = at_min ? std::min(target, e) : std::max(target, e);
    }
    std::vector<PartitionId> hits;
    for (PartitionId i = 0; i < s.k(); ++i) {
      if (eff[i] == target) hits.push_back(i);
    }
    return hits[rng.UniformInt(hits.size())];
  }
  return static_cast<PartitionId>(rng.UniformInt(s.k()));
}

// Partitions at the minimum effective load whose raw loads differ.
bool MinTiesAcrossRawLoads(const PartitionState& s) {
  const std::vector<double>& eff = s.effective();
  double min_load = eff[0];
  for (double e : eff) min_load = std::min(min_load, e);
  uint64_t raw = 0;
  bool seen = false;
  for (PartitionId i = 0; i < s.k(); ++i) {
    if (eff[i] != min_load) continue;
    if (seen && s.load(i) != raw) return true;
    raw = s.load(i);
    seen = true;
  }
  return false;
}

void RunRandomSequence(PartitionId k, bool heterogeneous, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "k=" << k << " heterogeneous="
                                    << heterogeneous << " seed=" << seed);
  PartitionState state(Config(k, heterogeneous));
  // Some load before the tracker starts, so Init has a non-trivial state.
  Rng rng(seed);
  for (uint32_t i = 0; i < 3 * k; ++i) {
    state.AddLoad(static_cast<PartitionId>(rng.UniformInt(k)));
  }
  state.InitEffectiveLoads();
  ASSERT_TRUE(MatchesScan(state));
  uint64_t raw_ties = 0;
  const uint32_t updates = 40 * k + 200;
  for (uint32_t i = 0; i < updates; ++i) {
    state.AddLoadUpdatingEffective(NextPartition(state, rng));
    ASSERT_TRUE(MatchesScan(state)) << "after update " << i;
    raw_ties += MinTiesAcrossRawLoads(state);
  }
  if (heterogeneous && k >= 2) {
    EXPECT_GT(raw_ties, 0u)
        << "the sequence never tied the min across different raw loads";
  }
}

TEST(LoadTrackerTest, MatchesScanHomogeneous) {
  for (PartitionId k : kPartitionCounts) {
    for (uint64_t seed : {1u, 2u, 3u}) RunRandomSequence(k, false, seed);
  }
}

TEST(LoadTrackerTest, MatchesScanHeterogeneous) {
  for (PartitionId k : kPartitionCounts) {
    for (uint64_t seed : {4u, 5u, 6u}) RunRandomSequence(k, true, seed);
  }
}

TEST(LoadTrackerTest, FreshStateHasZeroMaxAndUnitSpread) {
  for (PartitionId k : kPartitionCounts) {
    PartitionState state(Config(k, true));
    state.InitEffectiveLoads();
    EXPECT_EQ(state.max_effective(), 0.0);
    EXPECT_EQ(state.effective_spread(), 1.0);
    EXPECT_TRUE(MatchesScan(state));
  }
}

TEST(LoadTrackerTest, RoundRobinMovesTheMinOncePerRound) {
  // Homogeneous round robin: every partition sits at the min until its
  // turn, so the min moves exactly when the last one of a round is hit.
  const PartitionId k = 7;
  PartitionState state(Config(k, false));
  state.InitEffectiveLoads();
  for (uint32_t round = 0; round < 5; ++round) {
    for (PartitionId p = 0; p < k; ++p) {
      state.AddLoadUpdatingEffective(p);
      ASSERT_TRUE(MatchesScan(state));
      const double spread = p + 1 < k ? 2.0 : 1.0;
      EXPECT_EQ(state.effective_spread(), spread) << round << "/" << p;
      EXPECT_EQ(state.max_effective(), static_cast<double>(round + 1));
    }
  }
}

TEST(LoadTrackerTest, MatchesScanAfterShardedPublish) {
  for (PartitionId k : kPartitionCounts) {
    for (bool heterogeneous : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "k=" << k << " heterogeneous=" << heterogeneous);
      ShardedPartitionState sharded(Config(k, heterogeneous), 3);
      PartitionState& global = sharded.global();
      global.InitEffectiveLoads();
      Rng rng(k * 31 + heterogeneous);
      for (uint32_t round = 0; round < 6; ++round) {
        for (uint32_t w = 0; w < sharded.num_workers(); ++w) {
          const uint32_t adds =
              static_cast<uint32_t>(rng.UniformInt(2 * k)) + 1;
          for (uint32_t i = 0; i < adds; ++i) {
            sharded.AddWorkerLoad(
                w, static_cast<PartitionId>(rng.UniformInt(k)));
          }
        }
        sharded.Publish();
        ASSERT_TRUE(MatchesScan(global)) << "after publish " << round;
        // Sequential placements on the published state keep the tracker
        // in step until the next barrier rebuilds it.
        for (uint32_t i = 0; i < 4 * k; ++i) {
          global.AddLoadUpdatingEffective(NextPartition(global, rng));
          ASSERT_TRUE(MatchesScan(global))
              << "round " << round << " add " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// ReplicaState: the bit-index early-out in Add leaves every observable
// of the table unchanged.
// ---------------------------------------------------------------------

void ExpectSameTable(const ReplicaState& plain, const ReplicaState& indexed,
                     PartitionId k) {
  ASSERT_EQ(plain.num_vertices(), indexed.num_vertices());
  EXPECT_EQ(plain.total_entries(), indexed.total_entries());
  for (VertexId u = 0; u < plain.num_vertices(); ++u) {
    const auto a = plain.Of(u);
    const auto b = indexed.Of(u);
    ASSERT_EQ(std::vector<PartitionId>(a.begin(), a.end()),
              std::vector<PartitionId>(b.begin(), b.end()))
        << "vertex " << u;
    if (!indexed.bit_index_enabled()) continue;
    const uint64_t* row = indexed.RowWords(u);
    for (PartitionId p = 0; p < k; ++p) {
      const bool bit = (row[p >> 6] >> (p & 63)) & 1u;
      ASSERT_EQ(bit, plain.Contains(u, p)) << "vertex " << u << " p " << p;
    }
  }
}

// Random Add / Clear / EnsureVertex on two tables, the second with the
// bit index on from `enable_at` (0 = before any operation). Adds favour
// partitions already in the set, so the early-out is taken often, and a
// few hubs collect enough replicas to spill past the inline buffer.
void RunReplicaSequence(PartitionId k, uint32_t enable_at, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "k=" << k << " enable_at=" << enable_at << " seed=" << seed);
  ReplicaState plain(8);
  ReplicaState indexed(8);
  if (enable_at == 0) indexed.EnableBitIndex(k);
  Rng rng(seed);
  const uint32_t ops = 3000;
  for (uint32_t op = 0; op < ops; ++op) {
    if (op == enable_at && enable_at != 0) indexed.EnableBitIndex(k);
    const double roll = rng.UniformReal();
    if (roll < 0.03) {
      const VertexId grow =
          plain.num_vertices() + static_cast<VertexId>(rng.UniformInt(5));
      plain.EnsureVertex(grow);
      indexed.EnsureVertex(grow);
    } else if (roll < 0.07) {
      const VertexId u =
          static_cast<VertexId>(rng.UniformInt(plain.num_vertices()));
      plain.Clear(u);
      indexed.Clear(u);
    } else {
      // Hubs: the first two ids take most adds.
      const VertexId u =
          rng.Bernoulli(0.3)
              ? static_cast<VertexId>(rng.UniformInt(2))
              : static_cast<VertexId>(rng.UniformInt(plain.num_vertices()));
      const auto set = plain.Of(u);
      const PartitionId p =
          !set.empty() && rng.Bernoulli(0.5)
              ? set[rng.UniformInt(set.size())]
              : static_cast<PartitionId>(rng.UniformInt(k));
      plain.Add(u, p);
      indexed.Add(u, p);
    }
    if (op % 97 == 0) ExpectSameTable(plain, indexed, k);
  }
  EXPECT_FALSE(plain.bit_index_enabled());
  EXPECT_TRUE(indexed.bit_index_enabled());
  ExpectSameTable(plain, indexed, k);
}

TEST(ReplicaBitIndexTest, AddEarlyOutKeepsTableIdentical) {
  for (PartitionId k : kPartitionCounts) {
    RunReplicaSequence(k, /*enable_at=*/0, 11);
    RunReplicaSequence(k, /*enable_at=*/1500, 12);  // populated table
  }
}

TEST(ReplicaBitIndexTest, RepeatedAddIsIdempotentWithIndex) {
  ReplicaState rs(3);
  rs.EnableBitIndex(70);
  for (int rep = 0; rep < 3; ++rep) {
    for (PartitionId p : {69u, 0u, 64u, 5u, 33u, 12u}) rs.Add(1, p);
  }
  EXPECT_EQ(rs.total_entries(), 6u);
  EXPECT_EQ(rs.Of(1).size(), 6u);
  EXPECT_TRUE(rs.Of(0).empty());
  EXPECT_TRUE(rs.Of(2).empty());
}

// ---------------------------------------------------------------------
// BitMatrix: geometric row growth.
// ---------------------------------------------------------------------

TEST(BitMatrixGrowthTest, RowByRowGrowthReallocatesLogarithmically) {
  for (uint32_t cols : {10u, 130u, 700u}) {
    SCOPED_TRACE(::testing::Message() << "cols=" << cols);
    BitMatrix m(0, cols);
    const uint64_t n = 5000;
    uint32_t reallocations = 0;
    uint64_t capacity = m.row_capacity();
    for (uint64_t r = 1; r <= n; ++r) {
      m.EnsureRows(r);
      ASSERT_EQ(m.rows(), r);
      ASSERT_GE(m.row_capacity(), r);
      if (m.row_capacity() != capacity) {
        ++reallocations;
        capacity = m.row_capacity();
      }
      m.Set(r - 1, static_cast<uint32_t>((r - 1) % cols));
      if (r % 3 == 0) m.Set(r - 1, cols - 1);
    }
    // Doubling from one row: ceil(log2(5000)) + 1 = 14 allocations.
    EXPECT_LE(reallocations, 14u);
    EXPECT_LE(m.row_capacity(), 2 * n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u);
    for (uint64_t r = 0; r < n; ++r) {
      for (uint32_t c = 0; c < cols; ++c) {
        const bool expected =
            c == r % cols || (c == cols - 1 && (r + 1) % 3 == 0);
        ASSERT_EQ(m.Test(r, c), expected) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(BitMatrixGrowthTest, ResetAllocatesExactly) {
  // In-memory runs size the index once; only growth over-allocates.
  BitMatrix m(1000, 128);
  EXPECT_EQ(m.row_capacity(), 1000u);
  m.EnsureRows(1000);
  EXPECT_EQ(m.row_capacity(), 1000u);
  m.EnsureRows(1001);
  EXPECT_EQ(m.row_capacity(), 2000u);
  m.Reset(10, 128);
  EXPECT_EQ(m.rows(), 10u);
  EXPECT_EQ(m.row_capacity(), 10u);
}

TEST(BitMatrixGrowthTest, ExposedSpareRowsAreZero) {
  BitMatrix m(4, 200);
  for (uint32_t c = 0; c < 200; ++c) m.Set(3, c);
  m.EnsureRows(5);  // reallocates to 8 rows
  for (uint64_t r = 6; r <= 8; ++r) {
    m.EnsureRows(r);  // within capacity: no copy, spare rows exposed
    for (uint32_t c = 0; c < 200; ++c) {
      ASSERT_FALSE(m.Test(r - 1, c)) << "row " << r - 1;
    }
  }
  for (uint32_t c = 0; c < 200; ++c) ASSERT_TRUE(m.Test(3, c));
}

}  // namespace
}  // namespace sgp

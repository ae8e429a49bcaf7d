#include "partition/incidence.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/hashing.h"
#include "common/random.h"
#include "engine/distributed_graph.h"
#include "partition/dynamic/dynamic_partitioner.h"
#include "partition/metrics.h"
#include "partition/partitioning.h"
#include "partition/vertexcut/replica_state.h"
#include "tests/test_util.h"

// Every consumer of the vertex→partition incidence table — the table
// itself, graph-path masters, the streamed replica-row tally, replica sets,
// the replication factor, the engine's DistributedGraph and failover
// repair — checked against a dense n×k brute-force count.

namespace sgp {
namespace {

// Dense per-(vertex, partition) incident-edge counts plus each vertex's
// partitions in first-touch order of the edge scan.
struct Oracle {
  VertexId n = 0;
  PartitionId k = 0;
  std::vector<uint32_t> src;  // n × k
  std::vector<uint32_t> dst;  // n × k
  std::vector<std::vector<PartitionId>> touched;

  Oracle(const Graph& g, const std::vector<PartitionId>& edge_map,
         PartitionId parts)
      : n(g.num_vertices()),
        k(parts),
        src(static_cast<size_t>(n) * k, 0),
        dst(static_cast<size_t>(n) * k, 0),
        touched(n) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edges()[e];
      const PartitionId p = edge_map[e];
      if (Count(edge.src, p) == 0) touched[edge.src].push_back(p);
      ++src[Cell(edge.src, p)];
      if (Count(edge.dst, p) == 0) touched[edge.dst].push_back(p);
      ++dst[Cell(edge.dst, p)];
    }
  }

  size_t Cell(VertexId v, PartitionId p) const {
    return static_cast<size_t>(v) * k + p;
  }
  uint32_t Count(VertexId v, PartitionId p) const {
    return src[Cell(v, p)] + dst[Cell(v, p)];
  }

  // Highest count over [0, k) except `skip`, first (lowest) id on ties;
  // kInvalidPartition when every count is zero.
  PartitionId Best(VertexId v, PartitionId skip = kInvalidPartition) const {
    PartitionId best = kInvalidPartition;
    for (PartitionId p = 0; p < k; ++p) {
      if (p == skip || Count(v, p) == 0) continue;
      if (best == kInvalidPartition || Count(v, p) > Count(v, best)) best = p;
    }
    return best;
  }

  PartitionId Master(VertexId v) const {
    const PartitionId best = Best(v);
    return best != kInvalidPartition ? best
                                     : static_cast<PartitionId>(HashU64(v) % k);
  }

  // Sorted A(v): partitions with a nonzero count, plus the master.
  std::vector<PartitionId> ReplicaSet(VertexId v, PartitionId master) const {
    std::vector<PartitionId> set;
    for (PartitionId p = 0; p < k; ++p) {
      if (Count(v, p) > 0 || p == master) set.push_back(p);
    }
    return set;
  }
};

struct Case {
  Graph graph;
  Partitioning partitioning;  // masters from DeriveMasterPlacement
};

// The partition where hub 0's two exactly tied top partitions resolve:
// the lower one, although the higher one (k - 1) is touched first.
PartitionId HubTieWinner(PartitionId k) { return k / 3; }

// The partition failover promotes hub 1 to once its master, partition 0,
// is lost (k >= 3): the lower of two exactly tied survivors.
PartitionId FailoverTieWinner(PartitionId k) {
  return std::max<PartitionId>(1, k / 3);
}

// Random graph with two hubs and a tail of isolated ids no edge touches.
// Hub 0's two most-loaded partitions tie exactly. Hub 1 (k >= 3) has its
// master on partition 0 and two exactly tied partitions behind it.
Case MakeCase(bool directed, PartitionId k, uint64_t seed) {
  constexpr VertexId kConnected = 120;
  constexpr VertexId kIsolated = 7;
  Rng rng(seed);
  GraphBuilder b(kConnected + kIsolated, directed);
  std::vector<PartitionId> edge_map;
  // Hub edges go to leaves 2, 3, ... in plan order, alternating direction
  // on directed graphs.
  auto add_hub = [&](VertexId hub,
                     const std::vector<std::pair<PartitionId, int>>& plan) {
    VertexId leaf = 2;
    for (const auto& [part, count] : plan) {
      for (int i = 0; i < count; ++i, ++leaf) {
        if (leaf % 2 == 0) {
          b.AddEdge(hub, leaf);
        } else {
          b.AddEdge(leaf, hub);
        }
        edge_map.push_back(part);
      }
    }
    EXPECT_LT(leaf, kConnected);
  };
  const PartitionId lo = HubTieWinner(k);
  const PartitionId hi = k - 1;
  std::vector<std::pair<PartitionId, int>> plan = {{hi, 6}};
  for (PartitionId p = lo + 1; p < hi && plan.size() < 40; ++p) {
    plan.emplace_back(p, 2);
  }
  plan.emplace_back(lo, 6);
  add_hub(0, plan);
  if (k >= 3) add_hub(1, {{hi, 6}, {FailoverTieWinner(k), 6}, {0, 8}});
  // Random edges among the other connected ids (never touching a hub, so
  // the ties stay exact), duplicate-free so edge ids line up with
  // edge_map. Half of them land on four partitions spread over [0, k), so
  // ordinary vertices see count ties too.
  const PartitionId few = std::min<PartitionId>(k, 4);
  std::vector<std::pair<VertexId, VertexId>> seen;
  for (int i = 0; i < 600; ++i) {
    VertexId u = 2 + static_cast<VertexId>(rng.UniformInt(kConnected - 2));
    VertexId v = 2 + static_cast<VertexId>(rng.UniformInt(kConnected - 2));
    if (u == v) continue;
    const auto key = directed ? std::pair{u, v}
                              : std::pair{std::min(u, v), std::max(u, v)};
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    b.AddEdge(u, v);
    edge_map.push_back(
        rng.UniformInt(2) == 0
            ? static_cast<PartitionId>(rng.UniformInt(k))
            : static_cast<PartitionId>(rng.UniformInt(few)) * (k / few));
  }
  Graph g = std::move(b).Finalize();
  EXPECT_EQ(g.num_edges(), edge_map.size());
  Partitioning p;
  p.model = CutModel::kVertexCut;
  p.k = k;
  p.edge_to_partition = std::move(edge_map);
  DeriveMasterPlacement(g, &p);
  return {std::move(g), std::move(p)};
}

class IncidenceOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, PartitionId>> {
 protected:
  bool directed() const { return std::get<0>(GetParam()); }
  PartitionId k() const { return std::get<1>(GetParam()); }
};

TEST_P(IncidenceOracleTest, RowsMatchDenseCountsInFirstTouchOrder) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Case c = MakeCase(directed(), k(), seed);
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    const Incidence inc(c.graph, c.partitioning.edge_to_partition, k());
    uint64_t entries = 0;
    for (VertexId v = 0; v < o.n; ++v) {
      const auto row = inc.Row(v);
      ASSERT_EQ(row.size(), o.touched[v].size()) << "vertex " << v;
      for (size_t i = 0; i < row.size(); ++i) {
        const PartitionId p = o.touched[v][i];
        EXPECT_EQ(row[i].partition, p);
        EXPECT_EQ(row[i].src_count, o.src[o.Cell(v, p)]);
        EXPECT_EQ(row[i].dst_count, o.dst[o.Cell(v, p)]);
      }
      entries += row.size();
    }
    EXPECT_EQ(inc.num_entries(), entries);
  }
}

TEST_P(IncidenceOracleTest, GraphPathMastersMatchOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Case c = MakeCase(directed(), k(), seed);
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    for (VertexId v = 0; v < o.n; ++v) {
      EXPECT_EQ(c.partitioning.vertex_to_partition[v], o.Master(v))
          << "vertex " << v;
    }
    EXPECT_EQ(c.partitioning.vertex_to_partition[0], HubTieWinner(k()));
    if (k() >= 3) {
      EXPECT_EQ(c.partitioning.vertex_to_partition[1], 0u);
    }
  }
}

TEST_P(IncidenceOracleTest, ShuffledReplicaTallyMatchesOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Case c = MakeCase(directed(), k(), seed);
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    std::vector<EdgeId> order(c.graph.num_edges());
    std::iota(order.begin(), order.end(), EdgeId{0});
    Rng rng(seed * 977);
    rng.Shuffle(order);
    // Both spilled-row lookups: binary search, and the bit-index rank.
    for (bool bit_index : {false, true}) {
      ReplicaState tally;
      tally.EnableTally();
      if (bit_index) tally.EnableBitIndex(k());
      for (EdgeId e : order) {
        const Edge& edge = c.graph.edges()[e];
        tally.EnsureVertex(std::max(edge.src, edge.dst));
        tally.Add(edge.src, c.partitioning.edge_to_partition[e]);
        tally.Add(edge.dst, c.partitioning.edge_to_partition[e]);
      }
      // Ids past the last tallied one (the isolated tail) are hashed.
      for (VertexId v = 0; v < o.n; ++v) {
        PartitionId winner = kInvalidPartition;
        if (v < tally.num_vertices()) {
          const auto parts = tally.Of(v);
          const auto counts = tally.CountsOf(v);
          ASSERT_EQ(parts.size(), counts.size());
          ASSERT_EQ(parts.size(), o.touched[v].size()) << "vertex " << v;
          for (size_t i = 0; i < parts.size(); ++i) {
            EXPECT_EQ(counts[i], o.Count(v, parts[i]))
                << "vertex " << v << " partition " << parts[i];
          }
          winner = MostIncidentAt(
              parts.size(), [&](size_t i) { return parts[i]; },
              [&](size_t i) { return counts[i]; });
        }
        EXPECT_EQ(MasterOrHash(v, k(), winner), o.Master(v))
            << "vertex " << v << " bit_index=" << bit_index;
      }
    }
  }
}

TEST_P(IncidenceOracleTest, ReplicaSetsAndRfMatchOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Case c = MakeCase(directed(), k(), seed);
    // Move some masters off their rows so the "master holds no incident
    // edge" copy is exercised.
    for (VertexId v = 0; v < c.graph.num_vertices(); v += 5) {
      c.partitioning.vertex_to_partition[v] =
          static_cast<PartitionId>((v * 7) % k());
    }
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    const ReplicaSets sets = ComputeReplicaSets(c.graph, c.partitioning);
    ASSERT_EQ(sets.offsets.size(), static_cast<size_t>(o.n) + 1);
    uint64_t copies = 0;
    for (VertexId v = 0; v < o.n; ++v) {
      const auto of = sets.Of(v);
      const std::vector<PartitionId> expect =
          o.ReplicaSet(v, c.partitioning.vertex_to_partition[v]);
      EXPECT_EQ(std::vector<PartitionId>(of.begin(), of.end()), expect)
          << "vertex " << v;
      copies += expect.size();
    }
    const double rf = static_cast<double>(copies) / o.n;
    EXPECT_EQ(ComputeMetrics(c.graph, c.partitioning).replication_factor, rf);
    EXPECT_EQ(DistributedGraph(c.graph, c.partitioning).replication_factor(),
              rf);
  }
}

TEST_P(IncidenceOracleTest, DistributedGraphRowsMatchOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Case c = MakeCase(directed(), k(), seed);
    for (VertexId v = 0; v < c.graph.num_vertices(); v += 4) {
      c.partitioning.vertex_to_partition[v] =
          static_cast<PartitionId>((v * 11) % k());
    }
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    const DistributedGraph dg(c.graph, c.partitioning);
    for (VertexId v = 0; v < o.n; ++v) {
      // First-touch order, with the master appended when it holds no
      // incident edge, then swapped to the front.
      std::vector<PartitionId> expect = o.touched[v];
      const PartitionId master = c.partitioning.vertex_to_partition[v];
      auto at = std::find(expect.begin(), expect.end(), master);
      if (at == expect.end()) at = expect.insert(expect.end(), master);
      std::iter_swap(expect.begin(), at);

      const auto replicas = dg.Replicas(v);
      ASSERT_EQ(replicas.size(), expect.size()) << "vertex " << v;
      EXPECT_EQ(replicas[0].partition, dg.Master(v));
      for (size_t i = 0; i < replicas.size(); ++i) {
        const PartitionId p = expect[i];
        EXPECT_EQ(replicas[i].partition, p) << "vertex " << v;
        const uint32_t out = o.src[o.Cell(v, p)];
        const uint32_t in = o.dst[o.Cell(v, p)];
        EXPECT_EQ(replicas[i].in_edges, directed() ? in : in + out);
        EXPECT_EQ(replicas[i].out_edges, directed() ? out : in + out);
      }
    }
  }
}

TEST_P(IncidenceOracleTest, FailoverPromotionMatchesOracle) {
  if (k() < 2) GTEST_SKIP() << "failover needs a surviving worker";
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Case c = MakeCase(directed(), k(), seed);
    const Oracle o(c.graph, c.partitioning.edge_to_partition, k());
    // Losing partition 0 orphans hub 1, whose promotion resolves an exact
    // tie; with k = 2 it orphans hub 0 instead.
    const PartitionId dead = 0;
    const FailoverRepair repair =
        RepairAfterWorkerLoss(c.graph, c.partitioning, dead, DynamicOptions{});

    std::vector<uint64_t> loads(k(), 0);
    for (PartitionId m : c.partitioning.vertex_to_partition) ++loads[m];
    uint64_t moved = 0;
    uint64_t copied = 0;
    for (VertexId v = 0; v < o.n; ++v) {
      const PartitionId old_master = c.partitioning.vertex_to_partition[v];
      PartitionId expect = old_master;
      if (old_master == dead) {
        expect = o.Best(v, dead);
        if (expect == kInvalidPartition) {
          for (PartitionId p = 0; p < k(); ++p) {
            if (p == dead) continue;
            if (expect == kInvalidPartition || loads[p] < loads[expect]) {
              expect = p;
            }
          }
        }
        --loads[dead];
        ++loads[expect];
        ++moved;
        if (o.Count(v, expect) == 0) ++copied;
      }
      EXPECT_EQ(repair.partitioning.vertex_to_partition[v], expect)
          << "vertex " << v;
    }
    if (k() >= 3) {
      EXPECT_EQ(repair.partitioning.vertex_to_partition[1],
                FailoverTieWinner(k()));
    }
    EXPECT_EQ(repair.moved_masters, moved);
    EXPECT_EQ(repair.copied_vertices, copied);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DirectedAndK, IncidenceOracleTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(PartitionId{1}, PartitionId{2},
                                         PartitionId{63}, PartitionId{64},
                                         PartitionId{65}, PartitionId{200})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Directed" : "Undirected") +
             "K" + std::to_string(std::get<1>(info.param));
    });

TEST(FailoverTieTest, PromotesLowerIdOnExactTie) {
  // Hub 0: three edges on partition 2 (its master), then two on partition
  // 3 and two on partition 1. Losing worker 2 ties partitions 1 and 3 at
  // two live edges each; the lower id wins although 3 was touched first.
  Graph g = testing::MakeStar(8);
  Partitioning p =
      testing::MakeVertexCutPartitioning(g, 4, {2, 2, 2, 3, 3, 1, 1});
  ASSERT_EQ(p.vertex_to_partition[0], 2u);
  const FailoverRepair repair = RepairAfterWorkerLoss(g, p, 2, {});
  EXPECT_EQ(repair.partitioning.vertex_to_partition[0], 1u);
  for (PartitionId part : repair.partitioning.edge_to_partition) {
    EXPECT_NE(part, 2u);
  }
}

TEST(MostIncidentTest, EmptyOrFullySkippedRowHasNoWinner) {
  const std::vector<IncidenceEntry> row = {{4, 1, 0}};
  EXPECT_EQ(MostIncident(std::span<const IncidenceEntry>()), kInvalidPartition);
  EXPECT_EQ(MostIncident(std::span<const IncidenceEntry>(row), 4),
            kInvalidPartition);
  EXPECT_EQ(MostIncident(std::span<const IncidenceEntry>(row)), 4u);
  EXPECT_EQ(PickMaster(9, 5, std::span<const IncidenceEntry>()),
            static_cast<PartitionId>(HashU64(9) % 5));
}

}  // namespace
}  // namespace sgp

#include "partition/twophase/ne.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "partition/score_core.h"
#include "partition/state.h"

namespace sgp {

namespace {

struct NeMetrics {
  Counter* seeds = nullptr;
  Counter* expansions = nullptr;
  Counter* claimed_edges = nullptr;
  Counter* fallback_edges = nullptr;
  Histogram* expand_wall = nullptr;

  NeMetrics() = default;
  explicit NeMetrics(MetricsRegistry& reg) {
    seeds = reg.GetCounter("partition.ne.seeds");
    expansions = reg.GetCounter("partition.ne.expansions");
    claimed_edges = reg.GetCounter("partition.ne.claimed.edges");
    fallback_edges = reg.GetCounter("partition.ne.fallback.edges");
    expand_wall = reg.GetHistogram("partition.ne.expand.wall_seconds",
                                   MetricOptions::WallClock());
  }

  static NeMetrics& Get() { return CurrentRegistryMetrics<NeMetrics>(); }
};

// Incident-edge CSR: every edge listed under both endpoints, paired with
// the opposite endpoint.
struct IncidenceIndex {
  std::vector<uint64_t> offsets;
  std::vector<EdgeId> edge;
  std::vector<VertexId> other;

  explicit IncidenceIndex(const Graph& graph) {
    const VertexId n = graph.num_vertices();
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (const Edge& e : graph.edges()) {
      ++offsets[e.src + 1];
      ++offsets[e.dst + 1];
    }
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    edge.resize(offsets[n]);
    other.resize(offsets[n]);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    const std::vector<Edge>& edges = graph.edges();
    for (EdgeId id = 0; id < edges.size(); ++id) {
      const Edge& e = edges[id];
      edge[cursor[e.src]] = id;
      other[cursor[e.src]++] = e.dst;
      edge[cursor[e.dst]] = id;
      other[cursor[e.dst]++] = e.src;
    }
  }

  uint64_t Bytes() const {
    return offsets.capacity() * sizeof(uint64_t) +
           edge.capacity() * sizeof(EdgeId) +
           other.capacity() * sizeof(VertexId);
  }
};

}  // namespace

Partitioning NePartitioner::Run(const Graph& graph,
                                const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  const PartitionId k = config.k;
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();

  NeMetrics& metrics = NeMetrics::Get();
  ScopedTimer expand_timer(metrics.expand_wall);
  return RunVertexCut(graph, k, [&](Partitioning& result) {
    result.edge_to_partition.assign(m, kInvalidPartition);
    PartitionState state(config);
    state.InitCapacities(m, config.balance_slack);

    const IncidenceIndex inc(graph);
    auto unassigned_degree = [&](VertexId v) {
      uint32_t d = 0;
      for (uint64_t i = inc.offsets[v]; i < inc.offsets[v + 1]; ++i) {
        d += result.edge_to_partition[inc.edge[i]] == kInvalidPartition;
      }
      return d;
    };

    // Seed order: lowest degree first (ties toward the lower id) — the
    // expansion starts at the periphery and keeps the dense core intact
    // for as long as possible.
    std::vector<VertexId> seed_order(n);
    std::iota(seed_order.begin(), seed_order.end(), 0u);
    std::sort(seed_order.begin(), seed_order.end(),
              [&](VertexId a, VertexId b) {
                if (graph.Degree(a) != graph.Degree(b)) {
                  return graph.Degree(a) < graph.Degree(b);
                }
                return a < b;
              });
    size_t seed_cursor = 0;

    // core_of[v]: the partition whose core v joined (a vertex joins exactly
    // one core; boundary membership is per-partition via the stamp).
    std::vector<PartitionId> core_of(n, kInvalidPartition);
    std::vector<PartitionId> boundary_stamp(n, kInvalidPartition);
    uint64_t seeds = 0, expansions = 0, claimed = 0;

    // Min-heap of (unassigned-degree-at-push, vertex); lazy keys — stale
    // entries are re-pushed with their current key, so each pop acts on the
    // true minimum (ties toward the lower id via pair ordering).
    using QItem = std::pair<uint32_t, VertexId>;
    for (PartitionId p = 0; p + 1 < k; ++p) {
      std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> heap;
      while (state.HasRoom(p)) {
        if (heap.empty()) {
          // Fresh seed: next vertex with an unassigned incident edge.
          while (seed_cursor < seed_order.size() &&
                 (core_of[seed_order[seed_cursor]] != kInvalidPartition ||
                  unassigned_degree(seed_order[seed_cursor]) == 0)) {
            ++seed_cursor;
          }
          if (seed_cursor == seed_order.size()) break;  // nothing left anywhere
          const VertexId seed = seed_order[seed_cursor];
          heap.emplace(unassigned_degree(seed), seed);
          boundary_stamp[seed] = p;
          ++seeds;
        }
        const auto [key, x] = heap.top();
        heap.pop();
        if (core_of[x] != kInvalidPartition) continue;
        const uint32_t cur = unassigned_degree(x);
        if (cur != key) {
          if (cur > 0) heap.emplace(cur, x);
          continue;
        }
        // Move x into the core of p and claim its unassigned edges.
        core_of[x] = p;
        ++expansions;
        for (uint64_t i = inc.offsets[x];
             i < inc.offsets[x + 1] && state.HasRoom(p); ++i) {
          const EdgeId id = inc.edge[i];
          if (result.edge_to_partition[id] != kInvalidPartition) continue;
          result.edge_to_partition[id] = p;
          state.AddLoad(p);
          ++claimed;
          const VertexId y = inc.other[i];
          if (core_of[y] == kInvalidPartition && boundary_stamp[y] != p) {
            boundary_stamp[y] = p;
            heap.emplace(unassigned_degree(y), y);
          }
        }
      }
    }

    // Remainder: everything the expansion never reached (plus all of a
    // k == 1 run) goes to the least-loaded partition with room, in natural
    // edge order — the empty last partition absorbs it first.
    uint64_t fallback = 0;
    for (EdgeId id = 0; id < m; ++id) {
      if (result.edge_to_partition[id] != kInvalidPartition) continue;
      const PartitionId target = score::LeastLoadedWithRoom(
          k, state.loads().data(), state.weights().data(),
          state.capacities().data());
      result.edge_to_partition[id] = target;
      state.AddLoad(target);
      ++fallback;
    }

    state.NoteAuxiliaryBytes(inc.Bytes() +
                             core_of.capacity() * sizeof(PartitionId) +
                             boundary_stamp.capacity() * sizeof(PartitionId) +
                             result.edge_to_partition.capacity() *
                                 sizeof(PartitionId));
    result.state_bytes = state.SynopsisBytes();
    metrics.seeds->Increment(seeds);
    metrics.expansions->Increment(expansions);
    metrics.claimed_edges->Increment(claimed);
    metrics.fallback_edges->Increment(fallback);
  });
}

}  // namespace sgp

#include "partition/partitioning.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"

namespace sgp {

std::string_view ScoreModeName(ScoreMode mode) {
  switch (mode) {
    case ScoreMode::kReference:
      return "reference";
    case ScoreMode::kFast:
      return "fast";
  }
  return "unknown";
}

bool ParseScoreMode(std::string_view name, ScoreMode* mode) {
  if (name == "reference") {
    *mode = ScoreMode::kReference;
  } else if (name == "fast") {
    *mode = ScoreMode::kFast;
  } else {
    return false;
  }
  return true;
}

std::string_view CutModelName(CutModel model) {
  switch (model) {
    case CutModel::kEdgeCut:
      return "edge-cut";
    case CutModel::kVertexCut:
      return "vertex-cut";
    case CutModel::kHybrid:
      return "hybrid-cut";
  }
  return "unknown";
}

void DeriveEdgePlacement(const Graph& graph, Partitioning* p) {
  SGP_CHECK(p->vertex_to_partition.size() == graph.num_vertices());
  p->edge_to_partition.resize(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    p->edge_to_partition[e] = p->vertex_to_partition[graph.edges()[e].src];
  }
}

void DeriveMasterPlacement(const Graph& graph, Partitioning* p) {
  SGP_CHECK(p->edge_to_partition.size() == graph.num_edges());
  const VertexId n = graph.num_vertices();
  const PartitionId k = p->k;
  // Count incident edges per (vertex, partition) sparsely; replica sets are
  // small (bounded by k), so linear scans of the per-vertex lists are fine.
  std::vector<std::vector<std::pair<PartitionId, uint32_t>>> counts(n);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    PartitionId part = p->edge_to_partition[e];
    for (VertexId v : {graph.edges()[e].src, graph.edges()[e].dst}) {
      auto& vec = counts[v];
      auto it = std::find_if(vec.begin(), vec.end(),
                             [part](const auto& pr) { return pr.first == part; });
      if (it == vec.end()) {
        vec.emplace_back(part, 1u);
      } else {
        ++it->second;
      }
    }
  }
  p->vertex_to_partition.assign(n, kInvalidPartition);
  for (VertexId u = 0; u < n; ++u) {
    if (counts[u].empty()) {
      p->vertex_to_partition[u] =
          static_cast<PartitionId>(HashU64(u) % k);
      continue;
    }
    auto best = counts[u].front();
    for (const auto& pr : counts[u]) {
      if (pr.second > best.second ||
          (pr.second == best.second && pr.first < best.first)) {
        best = pr;
      }
    }
    p->vertex_to_partition[u] = best.first;
  }
}

ReplicaSets ComputeReplicaSets(const Graph& graph, const Partitioning& p) {
  SGP_CHECK(p.vertex_to_partition.size() == graph.num_vertices());
  SGP_CHECK(p.edge_to_partition.size() == graph.num_edges());
  const VertexId n = graph.num_vertices();
  std::vector<std::vector<PartitionId>> sets(n);
  for (VertexId u = 0; u < n; ++u) {
    sets[u].push_back(p.vertex_to_partition[u]);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    PartitionId part = p.edge_to_partition[e];
    sets[graph.edges()[e].src].push_back(part);
    sets[graph.edges()[e].dst].push_back(part);
  }
  ReplicaSets out;
  out.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    auto& s = sets[u];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    out.offsets[u + 1] = out.offsets[u] + static_cast<uint32_t>(s.size());
  }
  out.partitions.reserve(out.offsets[n]);
  for (VertexId u = 0; u < n; ++u) {
    out.partitions.insert(out.partitions.end(), sets[u].begin(),
                          sets[u].end());
  }
  return out;
}

}  // namespace sgp

#include "partition/partitioning.h"

#include <algorithm>

#include "common/check.h"
#include "partition/incidence.h"

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
  const Incidence incidence(graph, p->edge_to_partition, p->k);
  const VertexId n = graph.num_vertices();
  p->vertex_to_partition.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    p->vertex_to_partition[u] = PickMaster(u, p->k, incidence.Row(u));
  }
}

ReplicaSets ComputeReplicaSets(const Graph& graph, const Partitioning& p) {
  SGP_CHECK(p.vertex_to_partition.size() == graph.num_vertices());
  const Incidence incidence(graph, p.edge_to_partition, p.k);
  const VertexId n = graph.num_vertices();
  ReplicaSets out;
  out.offsets.reserve(static_cast<size_t>(n) + 1);
  out.offsets.push_back(0);
  // Upper bound: every master outside its row adds one copy.
  out.partitions.reserve(incidence.num_entries() + n);
  for (VertexId u = 0; u < n; ++u) {
    const auto row = incidence.Row(u);
    const size_t begin = out.partitions.size();
    for (const IncidenceEntry& e : row) out.partitions.push_back(e.partition);
    const PartitionId master = p.vertex_to_partition[u];
    if (IndexOf(row, master) == row.size()) out.partitions.push_back(master);
    std::sort(out.partitions.begin() + begin, out.partitions.end());
    out.offsets.push_back(out.partitions.size());
  }
  return out;
}

}  // namespace sgp

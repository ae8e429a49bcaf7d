#include "partition/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "partition/incidence.h"

namespace sgp {

PartitionMetrics ComputeMetrics(const Graph& graph, const Partitioning& p) {
  PartitionMetrics m;
  const VertexId n = graph.num_vertices();
  const EdgeId num_edges = graph.num_edges();
  m.vertices_per_partition.assign(p.k, 0);
  m.edges_per_partition.assign(p.k, 0);

  for (VertexId u = 0; u < n; ++u) {
    ++m.vertices_per_partition[p.vertex_to_partition[u]];
  }
  uint64_t cut = 0;
  for (EdgeId e = 0; e < num_edges; ++e) {
    ++m.edges_per_partition[p.edge_to_partition[e]];
    const Edge& edge = graph.edges()[e];
    if (p.vertex_to_partition[edge.src] != p.vertex_to_partition[edge.dst]) {
      ++cut;
    }
  }
  m.edge_cut_ratio = num_edges == 0
                         ? 0
                         : static_cast<double>(cut) /
                               static_cast<double>(num_edges);

  // |A(u)|: the partitions of u's incident edges, plus its master when
  // it holds none of them.
  const Incidence incidence(graph, p.edge_to_partition, p.k);
  uint64_t copies = 0;
  for (VertexId u = 0; u < n; ++u) {
    const auto row = incidence.Row(u);
    copies += row.size() +
              (IndexOf(row, p.vertex_to_partition[u]) == row.size());
  }
  m.replication_factor =
      n == 0 ? 0 : static_cast<double>(copies) / static_cast<double>(n);

  auto imbalance = [](const std::vector<uint64_t>& loads) {
    if (loads.empty()) return 0.0;
    uint64_t total = 0;
    uint64_t max = 0;
    for (uint64_t l : loads) {
      total += l;
      max = std::max(max, l);
    }
    if (total == 0) return 0.0;
    double avg = static_cast<double>(total) / static_cast<double>(loads.size());
    return static_cast<double>(max) / avg;
  };
  m.vertex_imbalance = imbalance(m.vertices_per_partition);
  m.edge_imbalance = imbalance(m.edges_per_partition);
  return m;
}

double DegreePsi(const Graph& graph, PartitionId k) {
  SGP_CHECK(k > 0);
  const VertexId n = graph.num_vertices();
  if (n == 0) return 1.0;
  const double q = 1.0 - 1.0 / static_cast<double>(k);
  double sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    sum += std::pow(q, static_cast<double>(graph.Degree(v)));
  }
  return sum / static_cast<double>(n);
}

double ExpectedRandomReplicationFactor(const Graph& graph, PartitionId k) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return 0.0;
  const double q = 1.0 - 1.0 / static_cast<double>(k);
  double sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    const double d = static_cast<double>(graph.Degree(v));
    // d independent uniform placements hit k(1 − q^d) distinct partitions
    // in expectation; the master lives on one of them (it is derived from
    // the replicas), and an isolated vertex still keeps one master copy.
    sum += std::max(1.0, static_cast<double>(k) * (1.0 - std::pow(q, d)));
  }
  return sum / static_cast<double>(n);
}

void ValidatePartitioning(const Graph& graph, const Partitioning& p) {
  SGP_CHECK(p.k > 0);
  SGP_CHECK(p.vertex_to_partition.size() == graph.num_vertices());
  SGP_CHECK(p.edge_to_partition.size() == graph.num_edges());
  for (PartitionId part : p.vertex_to_partition) SGP_CHECK(part < p.k);
  for (PartitionId part : p.edge_to_partition) SGP_CHECK(part < p.k);
}

}  // namespace sgp

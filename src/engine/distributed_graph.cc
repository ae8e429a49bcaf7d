#include "engine/distributed_graph.h"

#include <utility>

#include "common/check.h"
#include "partition/incidence.h"

namespace sgp {

DistributedGraph::DistributedGraph(const Graph& graph,
                                   const Partitioning& partitioning)
    : graph_(&graph),
      k_(partitioning.k),
      master_(partitioning.vertex_to_partition) {
  SGP_CHECK(master_.size() == graph.num_vertices());
  const VertexId n = graph.num_vertices();
  const Incidence incidence(graph, partitioning.edge_to_partition, k_);
  edges_per_partition_.assign(k_, 0);
  for (PartitionId p : partitioning.edge_to_partition) {
    ++edges_per_partition_[p];
  }

  // One replica per incidence entry, plus an empty one for a master that
  // holds no incident edge, so Replicas(v) is never empty.
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const auto row = incidence.Row(v);
    offsets_[v + 1] =
        offsets_[v] + row.size() + (IndexOf(row, master_[v]) == row.size());
  }
  // Copy the rows in first-touch order, then swap the master to the front.
  // On an undirected graph every incident edge is both an in- and an
  // out-edge of each endpoint.
  replicas_.resize(offsets_[n]);
  const bool directed = graph.directed();
  for (VertexId v = 0; v < n; ++v) {
    const auto row = incidence.Row(v);
    Replica* out = replicas_.data() + offsets_[v];
    for (size_t i = 0; i < row.size(); ++i) {
      const IncidenceEntry& e = row[i];
      out[i] = directed ? Replica{e.partition, e.dst_count, e.src_count}
                        : Replica{e.partition, e.count(), e.count()};
    }
    const size_t master_slot = IndexOf(row, master_[v]);
    if (master_slot == row.size()) out[master_slot] = {master_[v], 0, 0};
    std::swap(out[0], out[master_slot]);
  }

  replication_factor_ =
      n == 0 ? 0
             : static_cast<double>(replicas_.size()) / static_cast<double>(n);
}

}  // namespace sgp

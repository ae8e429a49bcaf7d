#include "partition/incidence.h"

#include <algorithm>

#include "common/check.h"

namespace sgp {

Incidence::Incidence(const Graph& graph,
                     std::span<const PartitionId> edge_to_partition,
                     PartitionId k) {
  SGP_CHECK(edge_to_partition.size() == graph.num_edges());
  // Half-edge record: the edge's partition shifted left by one, low bit
  // set at the destination endpoint.
  SGP_CHECK(k <= (PartitionId{1} << 31));
  const VertexId n = graph.num_vertices();
  const std::vector<Edge>& edges = graph.edges();

  // Pass 1: group the records by endpoint vertex (count → prefix sum →
  // fill). The fill advances each vertex's start offset to its end, so a
  // shift by one slot restores the starts without a separate cursor array.
  std::vector<uint64_t> rec_offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++rec_offsets[e.src + 1];
    ++rec_offsets[e.dst + 1];
  }
  for (VertexId v = 0; v < n; ++v) rec_offsets[v + 1] += rec_offsets[v];
  std::vector<uint32_t> records(rec_offsets[n]);
  for (EdgeId i = 0; i < edges.size(); ++i) {
    SGP_CHECK(edge_to_partition[i] < k);
    const uint32_t rec = edge_to_partition[i] << 1;
    records[rec_offsets[edges[i].src]++] = rec;
    records[rec_offsets[edges[i].dst]++] = rec | 1;
  }
  std::copy_backward(rec_offsets.begin(), rec_offsets.end() - 1,
                     rec_offsets.end());
  rec_offsets[0] = 0;

  // Pass 2 counts each vertex's distinct partitions, pass 3 aggregates its
  // records into them. slot[p] is the entry index partition p took in the
  // current row; an index outside [begin, end) means the vertex has not
  // touched p yet, so the scratch never needs a per-vertex reset.
  std::vector<uint64_t> slot(k, UINT64_MAX);
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  uint64_t end = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t begin = end;
    for (uint64_t i = rec_offsets[v]; i < rec_offsets[v + 1]; ++i) {
      const PartitionId p = records[i] >> 1;
      if (slot[p] - begin >= end - begin) slot[p] = end++;
    }
    offsets_[v + 1] = end;
  }
  entries_.resize(end);
  std::fill(slot.begin(), slot.end(), UINT64_MAX);
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t begin = offsets_[v];
    end = begin;
    for (uint64_t i = rec_offsets[v]; i < rec_offsets[v + 1]; ++i) {
      const PartitionId p = records[i] >> 1;
      if (slot[p] - begin >= end - begin) {
        slot[p] = end;
        entries_[end++].partition = p;
      }
      IncidenceEntry& entry = entries_[slot[p]];
      if (records[i] & 1) {
        ++entry.dst_count;
      } else {
        ++entry.src_count;
      }
    }
  }
}

}  // namespace sgp

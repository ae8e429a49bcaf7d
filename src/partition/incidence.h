#ifndef SGP_PARTITION_INCIDENCE_H_
#define SGP_PARTITION_INCIDENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "common/types.h"
#include "graph/graph.h"

namespace sgp {

/// The winner rule of master placement (Appendix B): among `size` row
/// entries, entry i on partition `partition_at(i)` with `count_at(i)`
/// incident edges, the one with the most, ties toward the lower partition
/// id, never `skip` (a failed worker). Returns kInvalidPartition when no
/// entry is left. The pick depends only on the set of (partition, count)
/// pairs, never on their order in the row.
template <typename PartitionAt, typename CountAt>
PartitionId MostIncidentAt(size_t size, PartitionAt&& partition_at,
                           CountAt&& count_at,
                           PartitionId skip = kInvalidPartition) {
  PartitionId best = kInvalidPartition;
  uint32_t best_count = 0;
  for (size_t i = 0; i < size; ++i) {
    const PartitionId p = partition_at(i);
    if (p == skip) continue;
    const uint32_t c = count_at(i);
    if (best == kInvalidPartition || c > best_count ||
        (c == best_count && p < best)) {
      best = p;
      best_count = c;
    }
  }
  return best;
}

/// MostIncidentAt over a row of entries exposing `partition` and
/// `count()`.
template <typename Entry>
PartitionId MostIncident(std::span<const Entry> row,
                         PartitionId skip = kInvalidPartition) {
  return MostIncidentAt(
      row.size(), [&](size_t i) { return row[i].partition; },
      [&](size_t i) { return row[i].count(); }, skip);
}

/// Master of vertex `u` given the winner of its row; a vertex without
/// incident edges (no winner) is hashed onto one of the k partitions.
inline PartitionId MasterOrHash(VertexId u, PartitionId k,
                                PartitionId winner) {
  return winner != kInvalidPartition
             ? winner
             : static_cast<PartitionId>(HashU64(u) % k);
}

/// Master of vertex `u`: MostIncident over its row, else hashed.
template <typename Entry>
PartitionId PickMaster(VertexId u, PartitionId k, std::span<const Entry> row) {
  return MasterOrHash(u, k, MostIncident(row));
}

/// One partition's share of a vertex's incident edges: how many of the
/// edges placed there have the vertex as source and as destination (a
/// self-loop counts once in each).
struct IncidenceEntry {
  PartitionId partition = kInvalidPartition;
  uint32_t src_count = 0;
  uint32_t dst_count = 0;

  uint32_t count() const { return src_count + dst_count; }
};

/// Vertex→partition incidence of an edge placement: for every vertex, one
/// entry per partition holding at least one of its incident edges, in
/// first-touch order of the edge scan. Masters, replica sets, the
/// replication factor, the engine's DistributedGraph and failover repair
/// all read this one table. Flat CSR, built by one counting sort of 4-byte
/// half-edge records.
class Incidence {
 public:
  /// Aborts unless edge_to_partition has one entry per edge, each < k, and
  /// k <= 2^31 (a record keeps the partition in 31 bits).
  Incidence(const Graph& graph, std::span<const PartitionId> edge_to_partition,
            PartitionId k);

  std::span<const IncidenceEntry> Row(VertexId v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// Total entries over all rows.
  uint64_t num_entries() const { return entries_.size(); }

 private:
  std::vector<uint64_t> offsets_;  // size n+1, into entries_
  std::vector<IncidenceEntry> entries_;
};

/// Position of `part` in `row`, or row.size() when absent.
inline size_t IndexOf(std::span<const IncidenceEntry> row, PartitionId part) {
  size_t i = 0;
  while (i < row.size() && row[i].partition != part) ++i;
  return i;
}

}  // namespace sgp

#endif  // SGP_PARTITION_INCIDENCE_H_

#ifndef SGP_PARTITION_INCIDENCE_H_
#define SGP_PARTITION_INCIDENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "common/types.h"
#include "graph/graph.h"

namespace sgp {

/// The winner rule of master placement (Appendix B): the partition of
/// `row` with the most incident edges, ties toward the lower partition id,
/// never `skip` (a failed worker). Returns kInvalidPartition when no entry
/// is left. `Entry` exposes `partition` and `count()`.
template <typename Entry>
PartitionId MostIncident(std::span<const Entry> row,
                         PartitionId skip = kInvalidPartition) {
  PartitionId best = kInvalidPartition;
  uint32_t best_count = 0;
  for (const Entry& e : row) {
    if (e.partition == skip) continue;
    if (best == kInvalidPartition || e.count() > best_count ||
        (e.count() == best_count && e.partition < best)) {
      best = e.partition;
      best_count = e.count();
    }
  }
  return best;
}

/// Master of vertex `u`: MostIncident over its row; a vertex without
/// incident edges is hashed onto one of the k partitions.
template <typename Entry>
PartitionId PickMaster(VertexId u, PartitionId k, std::span<const Entry> row) {
  const PartitionId best = MostIncident(row);
  return best != kInvalidPartition ? best
                                   : static_cast<PartitionId>(HashU64(u) % k);
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

/// Streaming master derivation: the same winner rule over per-vertex
/// (partition, incident edge count) lists accumulated edge by edge, for
/// the graph-free RunOnSource paths, whose synopsis stays O(n · RF). The
/// rule is order-independent, so streaming arrival order yields the
/// graph path's masters.
class MasterTracker {
 public:
  void Note(VertexId v, PartitionId part) {
    if (v >= counts_.size()) counts_.resize(static_cast<size_t>(v) + 1);
    auto& row = counts_[v];
    for (Tally& t : row) {
      if (t.partition == part) {
        ++t.edges;
        return;
      }
    }
    row.push_back({part, 1});
    ++total_entries_;
  }

  /// Masters for [0, n); ids never noted are hashed like the graph path.
  std::vector<PartitionId> Derive(VertexId n, PartitionId k) const {
    std::vector<PartitionId> masters(n);
    for (VertexId u = 0; u < n; ++u) {
      masters[u] = PickMaster(
          u, k,
          u < counts_.size() ? std::span<const Tally>(counts_[u])
                             : std::span<const Tally>());
    }
    return masters;
  }

  uint64_t SynopsisBytes() const {
    return counts_.capacity() * sizeof(counts_[0]) +
           total_entries_ * sizeof(Tally);
  }

 private:
  struct Tally {
    PartitionId partition = kInvalidPartition;
    uint32_t edges = 0;

    uint32_t count() const { return edges; }
  };

  std::vector<std::vector<Tally>> counts_;
  uint64_t total_entries_ = 0;
};

}  // namespace sgp

#endif  // SGP_PARTITION_INCIDENCE_H_

#ifndef SGP_PARTITION_EDGECUT_NEIGHBOR_GATHER_H_
#define SGP_PARTITION_EDGECUT_NEIGHBOR_GATHER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace sgp::internal_edgecut {

/// Cache-conscious neighbor-count accumulation for the edge-cut scoring
/// family (LDG/FENNEL/restreaming, Ginger phase 1).
///
/// The naive per-vertex loop interleaves two very different access
/// patterns: a random-indexed load from the flat assignment array
/// (`assignment[nbr]`, one potential cache miss per neighbor) and a
/// second random-indexed read-modify-write into the k-wide count table.
/// For high-degree vertices the two streams thrash each other out of L1.
///
/// This helper splits the loop into a chunked gather-then-accumulate
/// pipeline: blocks of `kGatherBlock` neighbor assignments are first
/// gathered into a dense local buffer — with `__builtin_prefetch` issued
/// `kGatherPrefetchDist` neighbors ahead so the line for assignment[nbr]
/// is in flight before the demand load — and then a second tight pass
/// bumps the count table from the buffer, which by then is a pure
/// L1-resident sweep. The observable effect (counts, touched order,
/// scan total) is identical to the naive loop; only the memory schedule
/// changes, so partition checksums are unaffected.
///
/// Across stream vertices, PrefetchAhead pipelines the same misses one
/// level up, in three stages down the chunk: the CSR bounds of a vertex
/// far ahead, then its neighbour row once the bounds have arrived, then
/// the assignment entries of its first neighbours once the row has. A
/// vertex's gather then starts on warm lines instead of paying the
/// bounds, row and first assignment misses in series, which is what
/// dominates a low-degree graph in random stream order.
struct NeighborGather {
  /// Block length of the gather buffer: 256 × 4-byte assignments = 4 KiB,
  /// comfortably L1-resident next to the count table.
  static constexpr size_t kGatherBlock = 256;
  /// How many neighbors ahead the gather pass prefetches. At ~16 pending
  /// loads the prefetcher covers a DRAM round trip without evicting the
  /// block being gathered.
  static constexpr size_t kGatherPrefetchDist = 16;

  /// Stream positions of lookahead of PrefetchAhead: CSR bounds
  /// kBoundsAhead places ahead, the row kRowAhead places ahead and the
  /// assignment entries kAssignAhead places ahead, each stage reading
  /// what the previous one fetched.
  static constexpr size_t kBoundsAhead = 16;
  static constexpr size_t kRowAhead = 8;
  static constexpr size_t kAssignAhead = 4;

  std::array<PartitionId, kGatherBlock> buffer;
  /// Deterministic pipeline accounting, flushed by the caller into
  /// partition.greedy.gather.{blocks,prefetched}.
  uint64_t blocks = 0;
  uint64_t prefetched = 0;

  /// Issues the cross-vertex prefetches for position `i` of `chunk`:
  /// the CSR bounds of chunk[i + kBoundsAhead], the row of
  /// chunk[i + kRowAhead], and the assignment entries of at most the
  /// first kGatherPrefetchDist neighbours of chunk[i + kAssignAhead]
  /// (Accumulate's in-row prefetch covers the rest). Not counted in
  /// `prefetched`.
  static void PrefetchAhead(const Graph& graph,
                            std::span<const VertexId> chunk, size_t i,
                            const PartitionId* assignment) {
    if (i + kBoundsAhead < chunk.size()) {
      graph.PrefetchNeighborBounds(chunk[i + kBoundsAhead]);
    }
    if (i + kRowAhead < chunk.size()) {
      __builtin_prefetch(graph.Neighbors(chunk[i + kRowAhead]).data(), 0, 1);
    }
    if (i + kAssignAhead < chunk.size()) {
      const std::span<const VertexId> row =
          graph.Neighbors(chunk[i + kAssignAhead]);
      const size_t len =
          row.size() < kGatherPrefetchDist ? row.size() : kGatherPrefetchDist;
      for (size_t j = 0; j < len; ++j) {
        __builtin_prefetch(&assignment[row[j]], 0, 1);
      }
    }
  }

  /// Accumulates the partition histogram of `nbrs` under `assignment`
  /// into `neighbor_counts`, recording each first-touched partition in
  /// `touched`. Returns the number of neighbors scanned.
  uint64_t Accumulate(std::span<const VertexId> nbrs,
                      const PartitionId* assignment,
                      uint32_t* neighbor_counts,
                      std::vector<PartitionId>& touched) {
    const size_t deg = nbrs.size();
    for (size_t base = 0; base < deg; base += kGatherBlock) {
      const size_t len = deg - base < kGatherBlock ? deg - base : kGatherBlock;
      ++blocks;
      for (size_t j = 0; j < len; ++j) {
        const size_t ahead = base + j + kGatherPrefetchDist;
        if (ahead < deg) {
          __builtin_prefetch(&assignment[nbrs[ahead]], 0, 1);
          ++prefetched;
        }
        buffer[j] = assignment[nbrs[base + j]];
      }
      for (size_t j = 0; j < len; ++j) {
        const PartitionId part = buffer[j];
        if (part == kInvalidPartition) continue;
        if (neighbor_counts[part]++ == 0) touched.push_back(part);
      }
    }
    return deg;
  }
};

}  // namespace sgp::internal_edgecut

#endif  // SGP_PARTITION_EDGECUT_NEIGHBOR_GATHER_H_

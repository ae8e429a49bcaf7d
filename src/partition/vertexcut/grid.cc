#include "partition/vertexcut/grid.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

namespace {

// Largest divisor of k that is ≤ √k, giving the most square grid.
PartitionId GridRows(PartitionId k) {
  PartitionId best = 1;
  for (PartitionId r = 1;
       static_cast<uint64_t>(r) * r <= static_cast<uint64_t>(k); ++r) {
    if (k % r == 0) best = r;
  }
  return best;
}

}  // namespace

Partitioning GridPartitioner::Run(const Graph& graph,
                                  const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  const PartitionId k = config.k;
  const PartitionId rows = GridRows(k);
  const PartitionId cols = k / rows;

  auto row_of = [cols](PartitionId p) { return p / cols; };
  auto col_of = [cols](PartitionId p) { return p % cols; };
  auto in_constrained_set = [&](PartitionId p, PartitionId home) {
    return row_of(p) == row_of(home) || col_of(p) == col_of(home);
  };

  return RunVertexCut(graph, k, [&](Partitioning& result) {
    PartitionState state(config);
    const std::vector<double>& weights = state.weights();
    const std::vector<uint64_t>& loads = state.loads();
    std::vector<PartitionId> candidates;
    candidates.reserve(rows + cols);

    InMemoryEdgeSource source(graph, config.order, config.seed,
                              config.ingest_chunk_size);
    ForEachStreamItem(source, [&](const StreamEdge& edge) {
      PartitionId home_u = static_cast<PartitionId>(
          HashU64Seeded(edge.src, config.seed) % k);
      PartitionId home_v = static_cast<PartitionId>(
          HashU64Seeded(edge.dst, config.seed) % k);
      // Intersection of the two constrained sets; guaranteed non-empty since
      // it always contains (row(u), col(v)) and (row(v), col(u)).
      candidates.clear();
      PartitionId ru = row_of(home_u);
      PartitionId cu = col_of(home_u);
      for (PartitionId c = 0; c < cols; ++c) {
        PartitionId p = ru * cols + c;
        if (in_constrained_set(p, home_v)) candidates.push_back(p);
      }
      for (PartitionId r = 0; r < rows; ++r) {
        PartitionId p = r * cols + cu;
        if (p != home_u && in_constrained_set(p, home_v)) {
          candidates.push_back(p);
        }
      }
      SGP_DCHECK(!candidates.empty());
      // First-seen candidate wins ties (the candidate order is part of the
      // Grid construction), so this cannot use state.LeastLoaded().
      PartitionId best = candidates[0];
      for (PartitionId p : candidates) {
        if (static_cast<double>(loads[p]) / weights[p] <
            static_cast<double>(loads[best]) / weights[best]) {
          best = p;
        }
      }
      result.edge_to_partition[edge.id] = best;
      state.AddLoad(best);
    });
    result.state_bytes = state.SynopsisBytes();
  });
}

}  // namespace sgp

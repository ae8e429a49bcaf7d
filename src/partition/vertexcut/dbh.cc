#include "partition/vertexcut/dbh.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/streamed_vertexcut.h"

namespace sgp {

Partitioning DbhPartitioner::Run(const Graph& graph,
                                 const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  return RunVertexCut(graph, config.k, [&](Partitioning& result) {
    PartitionState state(config);
    const CapacityAwareHasher hasher(state);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const Edge& edge = graph.edges()[e];
      VertexId pivot = graph.Degree(edge.src) <= graph.Degree(edge.dst)
                           ? edge.src
                           : edge.dst;
      result.edge_to_partition[e] =
          hasher.Pick(HashU64Seeded(pivot, config.seed));
    }
    // O(k) synopsis: capacity weights for the hasher, nothing per edge.
    result.state_bytes = state.SynopsisBytes();
  });
}

StreamRunResult DbhPartitioner::RunOnSource(EdgeStreamSource& source,
                                            const PartitionConfig& config) const {
  return RunStreamedVertexCut(
      source, config, EdgeSlot::kArrival, [&](StreamedVertexCut& run) {
        PartitionState state(config);
        const CapacityAwareHasher hasher(state);
        ScoreCore core(state, config.score_mode);
        // No scorer keeps replica rows here, so the master tally gets a
        // table of its own; without a bit index, spilled rows are
        // binary-searched.
        ReplicaState tally;
        tally.EnableTally();

        // Degree pre-pass: stream occurrence counts stand in for degrees
        // (equal to graph degrees on duplicate-free undirected inputs).
        std::vector<uint32_t> stream_degree;
        ForEachStreamItem(source, [&](const StreamEdge& e) {
          const VertexId hi = std::max(e.src, e.dst);
          if (hi >= stream_degree.size()) {
            stream_degree.resize(static_cast<size_t>(hi) + 1, 0);
          }
          ++stream_degree[e.src];
          ++stream_degree[e.dst];
        });
        if (!run.Rewind("DBH requires a rewindable source (degree pre-pass)")) {
          return;
        }

        if (!run.Place([&](std::span<const StreamEdge> chunk) {
              core.NoteBatch();
              for (const StreamEdge& e : chunk) {
                const VertexId pivot =
                    stream_degree[e.src] <= stream_degree[e.dst] ? e.src
                                                                 : e.dst;
                run.RecordTallied(
                    tally, e, hasher.Pick(HashU64Seeded(pivot, config.seed)));
              }
            })) {
          return;
        }
        run.Finish(tally, state, 0,
                   tally.SynopsisBytes() +
                       stream_degree.capacity() * sizeof(uint32_t));
      });
}

}  // namespace sgp

#include "partition/vertexcut/greedy.h"

#include "common/check.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

Partitioning PowerGraphGreedyPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  return RunVertexCut(graph, config.k, [&](Partitioning& result) {
    // Synopsis: replica sets A(u), placed degrees (how many incident edges
    // of each vertex were already assigned) and edge loads.
    PartitionState state(config);
    state.InitReplicas(graph.num_vertices());
    state.InitDegreeTable(graph.num_vertices());
    ScoreCore core(state, config.score_mode);

    InMemoryEdgeSource source(graph, config.order, config.seed,
                              config.ingest_chunk_size);
    for (auto chunk = source.NextChunk(); !chunk.empty();
         chunk = source.NextChunk()) {
      core.PlacePggChunk(
          chunk, [&](VertexId x) { return graph.Degree(x); },
          [&](const StreamEdge& se, PartitionId target) {
            result.edge_to_partition[se.id] = target;
          });
    }
    result.state_bytes = state.SynopsisBytes();
  });
}

}  // namespace sgp

#include "partition/vertexcut/hash_vertexcut.h"

#include "common/check.h"
#include "common/hashing.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/streamed_vertexcut.h"

namespace sgp {

Partitioning HashVertexCutPartitioner::Run(
    const Graph& graph, const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  return RunVertexCut(graph, config.k, [&](Partitioning& result) {
    PartitionState state(config);
    const CapacityAwareHasher hasher(state);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const Edge& edge = graph.edges()[e];
      uint64_t h = HashCombine(HashU64Seeded(edge.src, config.seed),
                               HashU64Seeded(edge.dst, config.seed));
      result.edge_to_partition[e] = hasher.Pick(h);
    }
    // O(k) synopsis: capacity weights for the hasher, nothing per edge.
    result.state_bytes = state.SynopsisBytes();
  });
}

StreamRunResult HashVertexCutPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
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
        if (!run.Place([&](std::span<const StreamEdge> chunk) {
              core.NoteBatch();
              for (const StreamEdge& e : chunk) {
                const uint64_t h =
                    HashCombine(HashU64Seeded(e.src, config.seed),
                                HashU64Seeded(e.dst, config.seed));
                run.RecordTallied(tally, e, hasher.Pick(h));
              }
            })) {
          return;
        }
        run.Finish(tally, state, 0, tally.SynopsisBytes());
      });
}

}  // namespace sgp

#include "partition/vertexcut/hdrf.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "partition/score_core.h"
#include "partition/state.h"
#include "partition/streamed_vertexcut.h"
#include "stream/source.h"

namespace sgp {

namespace {

// Decision counters of the HDRF scoring loop, accumulated in locals and
// flushed once per Run (no atomics on the per-edge path).
struct HdrfMetrics {
  Counter* edges_assigned = nullptr;
  Counter* degree_table_hits = nullptr;
  Counter* tie_breaks = nullptr;
  Histogram* assign_wall = nullptr;

  HdrfMetrics() = default;
  explicit HdrfMetrics(MetricsRegistry& reg) {
    edges_assigned = reg.GetCounter("partition.hdrf.edges.assigned");
    degree_table_hits = reg.GetCounter("partition.hdrf.degree_table.hits");
    tie_breaks = reg.GetCounter("partition.hdrf.tie_breaks");
    assign_wall = reg.GetHistogram("partition.hdrf.assign.wall_seconds",
                                   MetricOptions::WallClock());
  }

  static HdrfMetrics& Get() { return CurrentRegistryMetrics<HdrfMetrics>(); }
};

}  // namespace

Partitioning HdrfPartitioner::Run(const Graph& graph,
                                  const PartitionConfig& config) const {
  SGP_CHECK(config.k > 0);
  HdrfMetrics& metrics = HdrfMetrics::Get();
  ScopedTimer assign_timer(metrics.assign_wall);
  return RunVertexCut(graph, config.k, [&](Partitioning& result) {
    PartitionState state(config);
    state.InitDegreeTable(graph.num_vertices());
    state.InitEffectiveLoads();
    state.InitReplicas(graph.num_vertices());
    ScoreCore core(state, config.score_mode);

    InMemoryEdgeSource source(graph, config.order, config.seed,
                              config.ingest_chunk_size);
    HdrfStats stats;
    for (auto chunk = source.NextChunk(); !chunk.empty();
         chunk = source.NextChunk()) {
      core.PlaceHdrfChunk(chunk, config.hdrf_lambda, stats,
                          [&](const StreamEdge& edge, PartitionId target) {
                            result.edge_to_partition[edge.id] = target;
                          });
    }
    metrics.edges_assigned->Increment(graph.num_edges());
    metrics.degree_table_hits->Increment(stats.degree_hits);
    metrics.tie_breaks->Increment(stats.tie_breaks);
    result.state_bytes = state.SynopsisBytes();
  });
}

StreamRunResult HdrfPartitioner::RunOnSource(
    EdgeStreamSource& source, const PartitionConfig& config) const {
  HdrfMetrics& metrics = HdrfMetrics::Get();
  ScopedTimer assign_timer(metrics.assign_wall);
  return RunStreamedVertexCut(
      source, config, EdgeSlot::kArrival, [&](StreamedVertexCut& run) {
        PartitionState state(config);
        state.InitDegreeTable(0);
        state.InitEffectiveLoads();
        state.InitReplicas(0);
        state.replicas().EnableTally();
        ScoreCore core(state, config.score_mode);
        HdrfStats stats;
        if (!run.Place([&](std::span<const StreamEdge> chunk) {
              // Grow the id space over the whole chunk up front, so the
              // scorer's bit-index rows are stable while it batches the
              // chunk.
              for (const StreamEdge& e : chunk) {
                state.EnsureVertex(std::max(e.src, e.dst));
              }
              core.PlaceHdrfChunk(
                  chunk, config.hdrf_lambda, stats,
                  [&](const StreamEdge& e, PartitionId target) {
                    run.Record(e, target);
                  });
            })) {
          return;
        }
        metrics.edges_assigned->Increment(run.num_edges());
        metrics.degree_table_hits->Increment(stats.degree_hits);
        metrics.tie_breaks->Increment(stats.tie_breaks);
        run.Finish(state.replicas(), state, 0, 0);
      });
}

}  // namespace sgp

#include "partition/streamed_vertexcut.h"

#include <utility>

#include "partition/incidence.h"

namespace sgp {

StreamedVertexCut::StreamedVertexCut(EdgeStreamSource& source,
                                     const PartitionConfig& config,
                                     EdgeSlot slot)
    : source_(source), slot_(slot) {
  out_.partitioning.model = CutModel::kVertexCut;
  out_.partitioning.k = config.k;
}

bool StreamedVertexCut::CheckSource() {
  if (source_.ok()) return true;
  Fail(source_.error());
  return false;
}

bool StreamedVertexCut::Rewind(const char* not_rewindable) {
  if (!CheckSource()) return false;
  if (!source_.SupportsRewind()) {
    Fail(not_rewindable);
    return false;
  }
  source_.Rewind();
  return CheckSource();
}

void StreamedVertexCut::Fail(std::string error) {
  out_.ok = false;
  out_.error = std::move(error);
  done_ = true;
}

void StreamedVertexCut::Finish(const ReplicaState& tally,
                               PartitionState& state, VertexId min_vertices,
                               uint64_t aux_bytes) {
  SGP_CHECK(tally.tally_enabled());
  const PartitionId k = out_.partitioning.k;
  const VertexId n = std::max(min_vertices, id_bound_);
  std::vector<PartitionId>& masters = out_.partitioning.vertex_to_partition;
  masters.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    PartitionId winner = kInvalidPartition;
    if (u < tally.num_vertices()) {
      const auto parts = tally.Of(u);
      const auto counts = tally.CountsOf(u);
      winner = MostIncidentAt(
          parts.size(), [&](size_t i) { return parts[i]; },
          [&](size_t i) { return counts[i]; });
    }
    masters[u] = MasterOrHash(u, k, winner);
  }
  out_.num_vertices = n;
  state.NoteAuxiliaryBytes(aux_bytes);
  out_.partitioning.state_bytes = state.SynopsisBytes();
  done_ = true;
}

StreamRunResult StreamedVertexCut::Take(double seconds) {
  SGP_CHECK(done_);
  out_.partitioning.partitioning_seconds = seconds;
  return std::move(out_);
}

}  // namespace sgp

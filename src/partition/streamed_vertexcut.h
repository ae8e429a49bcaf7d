#ifndef SGP_PARTITION_STREAMED_VERTEXCUT_H_
#define SGP_PARTITION_STREAMED_VERTEXCUT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "common/types.h"
#include "partition/partitioner.h"
#include "partition/state.h"
#include "stream/source.h"

namespace sgp {

/// Where a streamed run stores an edge's partition in edge_to_partition.
enum class EdgeSlot {
  kArrival,   // the i-th edge placed goes to slot i
  kStreamId,  // slot StreamEdge::id: the dense EdgeId of an in-memory
              // source, the arrival index of a disk stream
};

/// One graph-free vertex-cut run, as RunStreamedVertexCut hands it to an
/// algorithm: the chunk loop, the source-error exits, the edge record
/// (assignment slot, vertex-id bound, edge count) and the finish (masters
/// from the replica-row tally, state_bytes) shared by every streamed
/// vertex-cut RunOnSource.
class StreamedVertexCut {
 public:
  StreamedVertexCut(EdgeStreamSource& source, const PartitionConfig& config,
                    EdgeSlot slot);

  /// Ends a pre-pass: fails the run when the pass met a source error, or
  /// with `not_rewindable` when the source cannot rewind; else rewinds it
  /// for the next pass. Returns false when the run failed.
  bool Rewind(const char* not_rewindable);

  /// Placement pass: hands every chunk of the source to
  /// place_chunk(chunk), which places each edge and Records it. Returns
  /// false, with the source's error on the run, when the source failed.
  template <typename PlaceChunk>
  bool Place(PlaceChunk&& place_chunk) {
    for (auto chunk = source_.NextChunk(); !chunk.empty();
         chunk = source_.NextChunk()) {
      place_chunk(chunk);
    }
    return CheckSource();
  }

  /// Records that `e` was placed on `target`, inside the chunk loop or
  /// after it (HEP's hub core). The endpoints' master tally is the
  /// algorithm's replica commit, ReplicaState::Add on each endpoint.
  void Record(const StreamEdge& e, PartitionId target) {
    std::vector<PartitionId>& assign = out_.partitioning.edge_to_partition;
    if (slot_ == EdgeSlot::kArrival) {
      assign.push_back(target);
    } else {
      if (e.id >= assign.size()) {
        assign.resize(static_cast<size_t>(e.id) + 1, kInvalidPartition);
      }
      assign[e.id] = target;
    }
    id_bound_ = std::max({id_bound_, e.src + 1, e.dst + 1});
    ++out_.num_edges;
  }

  /// Record for an algorithm without a scorer, whose own `tally` learns
  /// the edge here: grown to cover both endpoints, one incident edge
  /// counted on `target` for each.
  void RecordTallied(ReplicaState& tally, const StreamEdge& e,
                     PartitionId target) {
    tally.EnsureVertex(std::max(e.src, e.dst));
    tally.Add(e.src, target);
    tally.Add(e.dst, target);
    Record(e, target);
  }

  /// Edges recorded so far.
  uint64_t num_edges() const { return out_.num_edges; }

  /// Bytes of the edge assignment recorded so far. 2PS and HEP count it
  /// as working state: they fill it by StreamEdge::id, not in arrival
  /// order.
  uint64_t assignment_bytes() const {
    return out_.partitioning.edge_to_partition.capacity() *
           sizeof(PartitionId);
  }

  /// Fails the run with `error`; its partial results are meaningless.
  void Fail(std::string error);

  /// Completes the run: masters for [0, max(min_vertices, id bound)) by
  /// the winner rule over `tally` (a ReplicaState with EnableTally), and
  /// state_bytes = the synopsis of `state` plus `aux_bytes` (the
  /// algorithm's other working state, a tally outside `state` included).
  void Finish(const ReplicaState& tally, PartitionState& state,
              VertexId min_vertices, uint64_t aux_bytes);

  /// The result, timed by the caller; a run must have failed or finished.
  StreamRunResult Take(double seconds);

 private:
  bool CheckSource();

  EdgeStreamSource& source_;
  EdgeSlot slot_;
  StreamRunResult out_;
  VertexId id_bound_ = 0;
  bool done_ = false;
};

/// Stream twin of RunVertexCut: `place(run)` makes the algorithm's
/// pre-passes and placement pass through `run` (a StreamedVertexCut) and
/// ends with run.Finish, or stops after a failed step.
/// partitioning_seconds covers the whole call.
template <typename Place>
StreamRunResult RunStreamedVertexCut(EdgeStreamSource& source,
                                     const PartitionConfig& config,
                                     EdgeSlot slot, Place&& place) {
  SGP_CHECK(config.k > 0);
  Timer timer;
  StreamedVertexCut run(source, config, slot);
  place(run);
  return run.Take(timer.ElapsedSeconds());
}

}  // namespace sgp

#endif  // SGP_PARTITION_STREAMED_VERTEXCUT_H_

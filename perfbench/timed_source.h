#ifndef PERFBENCH_TIMED_SOURCE_H_
#define PERFBENCH_TIMED_SOURCE_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/telemetry.h"
#include "stream/source.h"

namespace perfbench {

/// Decorator over any EdgeStreamSource that times every pull and rewind as
/// a "source.pull" span and counts passes and edges, so a RunOnSource job
/// can report how much of its wall time went to reading the stream
/// (parsing, for a file source) and how much to placement: the pulls are
/// child spans of the span around RunOnSource. With a null trace buffer
/// the spans are inert and only the counts are kept.
class TimedEdgeSource final : public sgp::EdgeStreamSource {
 public:
  TimedEdgeSource(sgp::EdgeStreamSource& inner, sgp::TraceBuffer* trace)
      : inner_(inner), trace_(trace) {}

  std::span<const sgp::StreamEdge> NextChunk() override {
    sgp::Span span(trace_, "source.pull");
    std::span<const sgp::StreamEdge> chunk = inner_.NextChunk();
    edges_pulled_ += chunk.size();
    // An empty chunk from a healthy source ends a pass that read the
    // whole input.
    if (chunk.empty() && inner_.ok()) ++passes_;
    return chunk;
  }
  void Reset() override {
    sgp::Span span(trace_, "source.pull");
    inner_.Reset();
  }
  void Rewind() override {
    sgp::Span span(trace_, "source.pull");
    inner_.Rewind();
  }
  bool SupportsRewind() const override { return inner_.SupportsRewind(); }
  uint64_t size_hint() const override { return inner_.size_hint(); }
  bool ok() const override { return inner_.ok(); }
  std::string error() const override { return inner_.error(); }

  /// Passes read to the end of the stream.
  uint64_t passes() const { return passes_; }
  /// Edges delivered over all passes.
  uint64_t edges_pulled() const { return edges_pulled_; }

 private:
  sgp::EdgeStreamSource& inner_;
  sgp::TraceBuffer* trace_;
  uint64_t passes_ = 0;
  uint64_t edges_pulled_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SOURCE_H_

#include "stream/source.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "graph/io.h"

namespace sgp {

namespace {

// Chunk-refill instrumentation shared by every source. `stream.chunks` is
// deterministic (a function of stream length and chunk size);
// `stream.refill_nanos` is wall time and registered as such so
// deterministic exports exclude it (docs/OBSERVABILITY.md).
struct SourceMetrics {
  Counter* chunks = nullptr;
  Counter* refill_nanos = nullptr;
  Counter* disk_edges = nullptr;
  Counter* disk_skipped_lines = nullptr;

  SourceMetrics() = default;
  explicit SourceMetrics(MetricsRegistry& reg) {
    chunks = reg.GetCounter("stream.chunks");
    refill_nanos =
        reg.GetCounter("stream.refill_nanos", MetricOptions::WallClock());
    disk_edges = reg.GetCounter("stream.disk.edges");
    disk_skipped_lines = reg.GetCounter("stream.disk.skipped_lines");
  }

  static SourceMetrics& Get() {
    return CurrentRegistryMetrics<SourceMetrics>();
  }
};

}  // namespace

InMemoryVertexSource::InMemoryVertexSource(const Graph& graph,
                                           StreamOrder order, uint64_t seed,
                                           uint64_t chunk_size)
    : order_(MakeVertexStream(graph, order, seed)),
      chunk_size_(chunk_size == 0 ? order_.size() : chunk_size) {}

std::span<const VertexId> InMemoryVertexSource::NextChunk() {
  if (pos_ >= order_.size()) return {};
  Timer timer;
  const uint64_t len = std::min<uint64_t>(chunk_size_, order_.size() - pos_);
  std::span<const VertexId> chunk(order_.data() + pos_, len);
  pos_ += len;
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.chunks->Increment();
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return chunk;
}

InMemoryEdgeSource::InMemoryEdgeSource(const Graph& graph, StreamOrder order,
                                       uint64_t seed, uint64_t chunk_size)
    : graph_(graph),
      order_(MakeEdgeStream(graph, order, seed)),
      chunk_size_(chunk_size == 0 ? order_.size() : chunk_size) {
  buffer_.resize(std::min<uint64_t>(
      std::max<uint64_t>(1, chunk_size_), order_.size()));
}

std::span<const StreamEdge> InMemoryEdgeSource::NextChunk() {
  if (pos_ >= order_.size()) return {};
  Timer timer;
  const uint64_t len = std::min<uint64_t>(chunk_size_, order_.size() - pos_);
  for (uint64_t i = 0; i < len; ++i) {
    const EdgeId e = order_[pos_ + i];
    const Edge& edge = graph_.edges()[e];
    buffer_[i] = StreamEdge{e, edge.src, edge.dst};
  }
  pos_ += len;
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.chunks->Increment();
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return {buffer_.data(), len};
}

EdgeListFileSource::EdgeListFileSource(const std::string& path)
    : EdgeListFileSource(path, Options()) {}

EdgeListFileSource::EdgeListFileSource(const std::string& path,
                                       const Options& options)
    : path_(path), options_(options) {
  SGP_CHECK(options_.chunk_size >= 1);
  // The chunk size is a limit, not a promise: a huge one (or one past the
  // file) grows the buffer only as far as the edges that arrive.
  constexpr uint64_t kMaxReservedEdges = uint64_t{1} << 16;
  buffer_.reserve(std::min(options_.chunk_size, kMaxReservedEdges));
  Reset();
}

void EdgeListFileSource::Reset() {
  reader_.reset();
  in_.close();
  in_.clear();
  in_.open(path_);
  next_edge_id_ = 0;
  skipped_lines_ = 0;
  max_vertex_bound_ = 0;
  if (!in_.good()) {
    ok_ = false;
    error_ = "cannot open edge list file: " + path_;
    return;
  }
  ok_ = true;
  error_.clear();
  reader_.emplace(in_);
}

std::span<const StreamEdge> EdgeListFileSource::NextChunk() {
  if (!ok_) return {};
  Timer timer;
  buffer_.clear();
  const VertexId limit =
      options_.num_vertices != 0 ? options_.num_vertices : kInvalidVertex;
  std::string_view line;
  while (buffer_.size() < options_.chunk_size && reader_->Next(&line)) {
    Edge edge;
    switch (ParseEdgeListLine(line, reader_->line_number(), limit, &edge,
                              &error_)) {
      case EdgeLineStatus::kIgnored:
        continue;
      case EdgeLineStatus::kSkipped:
        ++skipped_lines_;
        SourceMetrics::Get().disk_skipped_lines->Increment();
        continue;
      case EdgeLineStatus::kError:
        ok_ = false;
        return {};
      case EdgeLineStatus::kEdge:
        break;
    }
    // GraphBuilder drops self-loops during canonicalization; mirroring
    // that here keeps disk edge ids aligned with in-memory EdgeIds for
    // duplicate-free inputs.
    if (edge.src == edge.dst) continue;
    buffer_.push_back(StreamEdge{next_edge_id_++, edge.src, edge.dst});
    max_vertex_bound_ =
        std::max({max_vertex_bound_, edge.src + 1, edge.dst + 1});
  }
  if (reader_->read_error()) {
    ok_ = false;
    error_ = "cannot read edge list file: " + path_;
    return {};
  }
  if (buffer_.empty()) return {};
  SourceMetrics& metrics = SourceMetrics::Get();
  metrics.chunks->Increment();
  metrics.disk_edges->Increment(buffer_.size());
  metrics.refill_nanos->Increment(timer.ElapsedNanos());
  return {buffer_.data(), buffer_.size()};
}

}  // namespace sgp

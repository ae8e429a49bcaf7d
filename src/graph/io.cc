#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "common/check.h"

namespace sgp {

LineReader::LineReader(std::istream& in, size_t block_size)
    : in_(in), buffer_(std::max<size_t>(block_size, 1)) {}

bool LineReader::Next(std::string_view* line) {
  size_t scanned = begin_;
  for (;;) {
    const char* base = buffer_.data();
    const void* newline = std::memchr(base + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const size_t stop = static_cast<const char*>(newline) - base;
      *line = std::string_view(base + begin_, stop - begin_);
      begin_ = stop + 1;
      ++line_number_;
      return true;
    }
    if (eof_) {
      // getline semantics: an unterminated last line still counts, but
      // the partial tail of a failed read does not.
      if (begin_ == end_ || read_error_) return false;
      *line = std::string_view(base + begin_, end_ - begin_);
      begin_ = end_;
      ++line_number_;
      return true;
    }
    scanned = end_ - begin_;  // offset of the unscanned tail after Refill
    Refill();
  }
}

void LineReader::Refill() {
  const size_t tail = end_ - begin_;
  std::memmove(buffer_.data(), buffer_.data() + begin_, tail);
  begin_ = 0;
  end_ = tail;
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  in_.read(buffer_.data() + end_,
           static_cast<std::streamsize>(buffer_.size() - end_));
  end_ += static_cast<size_t>(in_.gcount());
  if (!in_) {
    eof_ = true;
    read_error_ = in_.bad();
  }
}

BlockWriter::BlockWriter(std::ostream& out) : out_(out), buffer_(kBlockSize) {}

BlockWriter& BlockWriter::Append(std::string_view text) {
  if (buffer_.size() - size_ < text.size()) {
    Flush();
    if (text.size() > buffer_.size()) {
      out_.write(text.data(), static_cast<std::streamsize>(text.size()));
      return *this;
    }
  }
  std::memcpy(buffer_.data() + size_, text.data(), text.size());
  size_ += text.size();
  return *this;
}

BlockWriter& BlockWriter::Append(char c) {
  if (size_ == buffer_.size()) Flush();
  buffer_[size_++] = c;
  return *this;
}

BlockWriter& BlockWriter::AppendUint(uint64_t value) {
  constexpr size_t kMaxDigits = 20;  // UINT64_MAX has 20 decimal digits
  if (buffer_.size() - size_ < kMaxDigits) Flush();
  char* begin = buffer_.data() + size_;
  size_ = std::to_chars(begin, begin + kMaxDigits, value).ptr - buffer_.data();
  return *this;
}

void BlockWriter::Flush() {
  if (size_ == 0) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(size_));
  size_ = 0;
}

namespace {

// C-locale isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Scans one id starting at *pos the way `std::istream >> uint64_t` does:
// skip whitespace, take an optional sign, then decimal digits. A missing
// digit or a value above 2^64 - 1 fails, as it sets failbit there.
// std::from_chars alone rejects the sign and the leading whitespace.
// `*text` is the id as written (sign and digits), for diagnostics: a
// negative id wraps around in `*value`, as it does in the istream.
bool ScanId(const char** pos, const char* end, uint64_t* value,
            std::string_view* text) {
  const char* p = *pos;
  while (p != end && IsSpace(*p)) ++p;
  const char* start = p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  uint64_t magnitude = 0;
  const auto [next, ec] = std::from_chars(p, end, magnitude);
  if (ec != std::errc()) return false;
  *value = negative ? 0 - magnitude : magnitude;
  *text = std::string_view(start, static_cast<size_t>(next - start));
  *pos = next;
  return true;
}

}  // namespace

EdgeLineStatus ParseEdgeListLine(std::string_view line,
                                 uint64_t line_number, VertexId id_limit,
                                 Edge* edge, std::string* error) {
  if (line.empty() || line[0] == '#' || line[0] == '%') {
    return EdgeLineStatus::kIgnored;
  }
  const char* pos = line.data();
  const char* end = pos + line.size();
  uint64_t src = 0;
  uint64_t dst = 0;
  std::string_view src_text;
  std::string_view dst_text;
  if (!ScanId(&pos, end, &src, &src_text) ||
      !ScanId(&pos, end, &dst, &dst_text)) {
    // Truncated or garbage line: recoverable, the caller skips it but
    // keeps a count so a clean read can be told from a degraded one.
    return EdgeLineStatus::kSkipped;
  }
  const uint64_t limit = id_limit;
  if (src >= limit || dst >= limit) {
    // Quote the larger (wrapped) id as written, so "-1" reads as -1.
    *error = "line " + std::to_string(line_number) + ": vertex id " +
             std::string(src >= dst ? src_text : dst_text) +
             " out of range (limit " + std::to_string(limit) + ")";
    return EdgeLineStatus::kError;
  }
  edge->src = static_cast<VertexId>(src);
  edge->dst = static_cast<VertexId>(dst);
  return EdgeLineStatus::kEdge;
}

namespace {

// TryReadEdgeList over a named input; `name` completes the read-error
// diagnostic ("cannot read edge list <name>").
EdgeListReadResult ReadEdges(std::istream& in, bool directed,
                             VertexId num_vertices, std::string_view name) {
  EdgeListReadResult result;
  std::vector<Edge> edges;
  VertexId max_id = 0;
  const VertexId limit = num_vertices != 0 ? num_vertices : kInvalidVertex;
  LineReader reader(in);
  std::string_view line;
  while (reader.Next(&line)) {
    Edge edge;
    switch (ParseEdgeListLine(line, reader.line_number(), limit, &edge,
                              &result.error)) {
      case EdgeLineStatus::kIgnored:
        continue;
      case EdgeLineStatus::kSkipped:
        ++result.skipped_lines;
        continue;
      case EdgeLineStatus::kError:
        return result;
      case EdgeLineStatus::kEdge:
        break;
    }
    edges.push_back(edge);
    max_id = std::max({max_id, edge.src, edge.dst});
  }
  if (reader.read_error()) {
    result.error = "cannot read edge list ";
    result.error += name;
    return result;
  }
  VertexId n = num_vertices != 0 ? num_vertices
               : edges.empty()   ? 0
                                 : max_id + 1;
  GraphBuilder builder(n, directed);
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst);
  edges = std::vector<Edge>();  // release before Finalize, the memory peak
  result.graph = std::move(builder).Finalize();
  result.ok = true;
  return result;
}

}  // namespace

EdgeListReadResult TryReadEdgeList(std::istream& in, bool directed,
                                   VertexId num_vertices) {
  return ReadEdges(in, directed, num_vertices, "stream");
}

EdgeListReadResult TryReadEdgeListFile(const std::string& path, bool directed,
                                       VertexId num_vertices) {
  std::ifstream in(path);
  if (!in.good()) {
    EdgeListReadResult result;
    result.error = "cannot open edge list file: " + path;
    return result;
  }
  return ReadEdges(in, directed, num_vertices, "file: " + path);
}

Graph ReadEdgeList(std::istream& in, bool directed, VertexId num_vertices) {
  EdgeListReadResult result = TryReadEdgeList(in, directed, num_vertices);
  if (!result.ok) throw std::runtime_error(result.error);
  return std::move(result.graph);
}

Graph ReadEdgeListFile(const std::string& path, bool directed,
                       VertexId num_vertices) {
  EdgeListReadResult result =
      TryReadEdgeListFile(path, directed, num_vertices);
  if (!result.ok) throw std::runtime_error(result.error);
  return std::move(result.graph);
}

void WriteEdgeList(const Graph& graph, std::ostream& out) {
  BlockWriter writer(out);
  for (const Edge& e : graph.edges()) {
    writer.AppendUint(e.src).Append(' ').AppendUint(e.dst).Append('\n');
  }
}

void WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  SGP_CHECK(out.good() && "cannot open output file");
  WriteEdgeList(graph, out);
}

}  // namespace sgp

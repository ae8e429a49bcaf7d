#ifndef SGP_GRAPH_IO_H_
#define SGP_GRAPH_IO_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace sgp {

/// Splits a byte stream into lines with std::getline semantics (the '\n'
/// is dropped, an unterminated last line still counts, a line longer than
/// the block grows the buffer) but reads the input in large blocks with
/// istream::read and finds line ends with memchr. This is the one line
/// source behind both TryReadEdgeList and EdgeListFileSource.
class LineReader {
 public:
  static constexpr size_t kDefaultBlockSize = size_t{1} << 20;

  /// `in` must outlive the reader; a `block_size` of 0 counts as 1.
  explicit LineReader(std::istream& in,
                      size_t block_size = kDefaultBlockSize);

  /// Points *line at the next line (valid until the next call) and
  /// returns true; returns false at end of input or on a read error.
  bool Next(std::string_view* line);

  /// 1-based number of the line last returned by Next().
  uint64_t line_number() const { return line_number_; }

  /// True when reading stopped on a stream error (badbit: EISDIR, EIO)
  /// rather than at the end of the input.
  bool read_error() const { return read_error_; }

 private:
  // Moves the unconsumed tail to the front (growing the buffer when the
  // tail fills it) and appends the next block from the stream.
  void Refill();

  std::istream& in_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first unconsumed byte
  size_t end_ = 0;    // one past the last byte read
  uint64_t line_number_ = 0;
  bool eof_ = false;
  bool read_error_ = false;
};

/// Formats text records into a large block and hands the stream whole
/// blocks, so writing a multi-megabyte file costs a few write calls
/// instead of one formatted insertion per token. Output bytes equal what
/// the same sequence of `out <<` insertions would produce. The destructor
/// writes what is still buffered; check the stream after it runs.
class BlockWriter {
 public:
  static constexpr size_t kBlockSize = size_t{1} << 20;

  explicit BlockWriter(std::ostream& out);
  ~BlockWriter() { Flush(); }
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  BlockWriter& Append(std::string_view text);
  BlockWriter& Append(char c);
  /// Decimal digits of `value`, as `out << value` writes them.
  BlockWriter& AppendUint(uint64_t value);

 private:
  // Writes the buffered bytes to the stream.
  void Flush();

  std::ostream& out_;
  std::vector<char> buffer_;
  size_t size_ = 0;
};

/// Outcome of a fault-tolerant edge-list read. Malformed lines (no two
/// integers parse) are skipped and counted; out-of-range vertex ids and
/// unopenable or unreadable files are hard errors with a diagnostic in
/// `error`. `graph` is meaningful only when `ok`.
struct EdgeListReadResult {
  bool ok = false;
  std::string error;
  uint64_t skipped_lines = 0;
  Graph graph;
};

/// Classification of one edge-list line by the shared line parser.
enum class EdgeLineStatus {
  kEdge,     // an edge was parsed into *edge
  kIgnored,  // blank line or '#'/'%' comment
  kSkipped,  // malformed (recoverable): callers count it and move on
  kError,    // out-of-range vertex id: *error carries the diagnostic
};

/// Parses one line of a whitespace-separated edge list ("src dst", extra
/// columns ignored). Each id is scanned the way `std::istream >> uint64_t`
/// scans it in the C locale: leading whitespace is skipped, an optional
/// '+' or '-' is accepted ('-' negates modulo 2^64), and an id that
/// overflows 64 bits makes the line malformed. `id_limit` is the exclusive
/// vertex-id bound (kInvalidVertex when the caller grows the id space from
/// the data). This is the single line-level parser behind both the
/// materializing TryReadEdgeList readers and the bounded-memory
/// EdgeListFileSource.
EdgeLineStatus ParseEdgeListLine(std::string_view line,
                                 uint64_t line_number, VertexId id_limit,
                                 Edge* edge, std::string* error);

/// Reads a whitespace-separated edge list ("src dst" per line; lines
/// starting with '#' or '%' are comments, extra columns are ignored). The
/// vertex count is max id + 1 unless `num_vertices` is nonzero, in which
/// case ids >= num_vertices are rejected. Never aborts.
EdgeListReadResult TryReadEdgeList(std::istream& in, bool directed,
                                   VertexId num_vertices = 0);

/// Reads an edge list from a file. A file that cannot be opened or read
/// (a directory, an I/O error) yields ok = false.
EdgeListReadResult TryReadEdgeListFile(const std::string& path, bool directed,
                                       VertexId num_vertices = 0);

/// Reads a whitespace-separated edge list; throws std::runtime_error with
/// the TryReadEdgeList diagnostic on invalid input.
Graph ReadEdgeList(std::istream& in, bool directed,
                   VertexId num_vertices = 0);

/// Reads an edge list from a file. Throws std::runtime_error if the file
/// cannot be opened or contains out-of-range vertex ids.
Graph ReadEdgeListFile(const std::string& path, bool directed,
                       VertexId num_vertices = 0);

/// Writes the canonical edge list, one "src dst" pair per line.
void WriteEdgeList(const Graph& graph, std::ostream& out);

/// Writes the canonical edge list to a file.
void WriteEdgeListFile(const Graph& graph, const std::string& path);

}  // namespace sgp

#endif  // SGP_GRAPH_IO_H_

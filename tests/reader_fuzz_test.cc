// Differential fuzz suite for the edge-list readers: the block-buffered
// LineReader + ParseEdgeListLine path behind TryReadEdgeList and
// EdgeListFileSource is checked against the reference line parser they
// replaced (std::getline + std::istringstream >> uint64_t) on a
// deterministic set of random byte strings. Edges, skipped-line counts, ok
// and the error text (which names the line) must all agree.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "stream/source.h"
#include "tests/test_util.h"

namespace sgp {
namespace {

// What the reference parser makes of an input: every accepted edge in line
// order (self-loops included), the skipped-line count, and the first hard
// error.
struct OracleRead {
  bool ok = true;
  std::string error;
  uint64_t skipped_lines = 0;
  std::vector<Edge> edges;
};

// The id `index` (0 or 1) of `line` as written: the characters an
// istringstream consumes for it after the leading whitespace.
std::string IdText(const std::string& line, int index) {
  std::istringstream ls(line);
  uint64_t id = 0;
  if (index == 1) ls >> id;
  ls >> std::ws;
  const auto start = static_cast<size_t>(ls.tellg());
  ls >> id;
  const size_t end =
      ls.eof() ? line.size() : static_cast<size_t>(ls.tellg());
  return line.substr(start, end - start);
}

// The reference reader: getline splits lines, istringstream scans ids.
OracleRead OracleParse(const std::string& bytes, VertexId num_vertices) {
  const uint64_t limit = num_vertices != 0 ? num_vertices : kInvalidVertex;
  OracleRead r;
  std::istringstream in(bytes);
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!(ls >> src >> dst)) {
      ++r.skipped_lines;
      continue;
    }
    if (src >= limit || dst >= limit) {
      std::ostringstream msg;
      msg << "line " << line_number << ": vertex id "
          << IdText(line, src >= dst ? 0 : 1) << " out of range (limit "
          << limit << ")";
      r.ok = false;
      r.error = msg.str();
      return r;
    }
    r.edges.push_back({static_cast<VertexId>(src),
                       static_cast<VertexId>(dst)});
  }
  return r;
}

// The Graph a correct TryReadEdgeList builds from the oracle's edges.
Graph OracleGraph(const OracleRead& oracle, bool directed,
                  VertexId num_vertices) {
  VertexId n = num_vertices;
  if (n == 0) {
    for (const Edge& e : oracle.edges) n = std::max({n, e.src + 1, e.dst + 1});
  }
  GraphBuilder builder(n, directed);
  for (const Edge& e : oracle.edges) builder.AddEdge(e.src, e.dst);
  return std::move(builder).Finalize();
}

// Random inputs over the byte alphabet the parser must classify: digits,
// signs, the six C-locale whitespace bytes, comment markers, NUL and
// letters, plus id tokens at the interesting bounds (2^32 - 1, 2^64 - 1,
// 20-digit overflows), CRLF endings and unterminated last lines.
class InputGenerator {
 public:
  explicit InputGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    std::string out;
    const uint64_t lines = rng_.UniformInt(12);
    for (uint64_t i = 0; i < lines; ++i) {
      if (rng_.UniformInt(3) == 0) {
        AppendNoise(&out);
      } else {
        AppendRecord(&out);
      }
      const bool last = i + 1 == lines;
      switch (rng_.UniformInt(6)) {
        case 0:
          out += "\r\n";
          break;
        case 1:
          if (!last) out += '\n';  // the last line stays unterminated
          break;
        default:
          out += '\n';
          break;
      }
    }
    return out;
  }

 private:
  static constexpr std::string_view kAlphabet{
      "0123456789+- \t\n\v\f\r#%\0ax", 23};

  void AppendNoise(std::string* out) {
    const uint64_t len = rng_.UniformInt(14);
    for (uint64_t i = 0; i < len; ++i) {
      *out += kAlphabet[rng_.UniformInt(kAlphabet.size())];
    }
  }

  void AppendSpace(std::string* out, uint64_t max_len) {
    static constexpr std::string_view kSpace = " \t\v\f\r";
    const uint64_t len = rng_.UniformInt(max_len + 1);
    for (uint64_t i = 0; i < len; ++i) {
      *out += kSpace[rng_.UniformInt(kSpace.size())];
    }
  }

  void AppendId(std::string* out) {
    static constexpr std::string_view kBoundaryIds[] = {
        "4294967295",           "4294967296",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999", "000000000000000000000007",
        "123456789012345678901234"};
    switch (rng_.UniformInt(10)) {
      case 0:
        *out += '+';
        break;
      case 1:
        *out += '-';
        break;
      default:
        break;
    }
    if (rng_.UniformInt(6) == 0) {
      *out += kBoundaryIds[rng_.UniformInt(std::size(kBoundaryIds))];
    } else {
      *out += std::to_string(rng_.UniformInt(48));
    }
  }

  // "[ws] id ws id [extra]", sometimes damaged by a stray byte.
  void AppendRecord(std::string* out) {
    AppendSpace(out, 2);
    AppendId(out);
    AppendSpace(out, 3);
    if (rng_.UniformInt(8) == 0) *out += ' ';
    AppendId(out);
    if (rng_.UniformInt(4) == 0) {
      AppendSpace(out, 2);
      AppendNoise(out);
    }
    if (rng_.UniformInt(10) == 0) {
      const size_t at = rng_.UniformInt(out->size() + 1);
      out->insert(out->begin() + static_cast<std::ptrdiff_t>(at),
                  kAlphabet[rng_.UniformInt(kAlphabet.size())]);
    }
  }

  Rng rng_;
};

// Inputs every run covers besides the random ones.
std::vector<std::string> FixedInputs() {
  const std::string pad(LineReader::kDefaultBlockSize + 3, ' ');
  return {
      "",
      "\n",
      "0 1",
      "0 1\r\n1 2\r\n",
      "# only a comment",
      std::string("0\0 1\n1 2\n", 9),
      "18446744073709551616 1\n1 18446744073709551616\n2 3\n",
      "-1 2\n",
      "-18446744073709551615 0\n",
      "+3 +4\n1+2\n3-4\n",
      pad + "5 6\n#" + pad + "\n" + pad + "\n7 8",
  };
}

using testing::TempFile;

std::string Describe(const std::string& bytes, VertexId num_vertices) {
  std::ostringstream s;
  s << "num_vertices=" << num_vertices << " input=\"";
  for (unsigned char c : bytes.substr(0, 200)) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      s << c;
    } else {
      s << "\\x" << std::hex << static_cast<int>(c) << std::dec;
    }
  }
  s << (bytes.size() > 200 ? "...\"" : "\"");
  return s.str();
}

void CheckTryReadEdgeList(const std::string& bytes, const OracleRead& oracle,
                          bool directed, VertexId num_vertices) {
  SCOPED_TRACE(Describe(bytes, num_vertices));
  std::istringstream in(bytes);
  EdgeListReadResult r = TryReadEdgeList(in, directed, num_vertices);
  ASSERT_EQ(r.ok, oracle.ok);
  EXPECT_EQ(r.error, oracle.error);
  EXPECT_EQ(r.skipped_lines, oracle.skipped_lines);
  if (!r.ok) return;
  Graph expected = OracleGraph(oracle, directed, num_vertices);
  EXPECT_EQ(r.graph.num_vertices(), expected.num_vertices());
  EXPECT_EQ(r.graph.edges(), expected.edges());
}

void CheckFileSource(const TempFile& file, const std::string& bytes,
                     const OracleRead& oracle, VertexId num_vertices) {
  std::vector<StreamEdge> expected;
  VertexId bound = 0;
  for (const Edge& e : oracle.edges) {
    if (e.src == e.dst) continue;  // the source drops self-loops
    expected.push_back({expected.size(), e.src, e.dst});
    bound = std::max({bound, e.src + 1, e.dst + 1});
  }
  for (uint64_t chunk : {1ull, 4096ull}) {
    SCOPED_TRACE(Describe(bytes, num_vertices) +
                 " chunk=" + std::to_string(chunk));
    EdgeListFileSource::Options opts;
    opts.chunk_size = chunk;
    opts.num_vertices = num_vertices;
    EdgeListFileSource source(file.path(), opts);
    std::vector<StreamEdge> edges;
    ForEachStreamItem(source,
                      [&](const StreamEdge& e) { edges.push_back(e); });
    ASSERT_EQ(source.ok(), oracle.ok);
    EXPECT_EQ(source.error(), oracle.error);
    EXPECT_EQ(source.skipped_lines(), oracle.skipped_lines);
    if (!oracle.ok) continue;
    ASSERT_EQ(edges.size(), expected.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(edges[i].id, expected[i].id) << i;
      EXPECT_EQ(edges[i].src, expected[i].src) << i;
      EXPECT_EQ(edges[i].dst, expected[i].dst) << i;
    }
    EXPECT_EQ(source.max_vertex_bound(), bound);
  }
}

// A Graph allocates O(max id) adjacency offsets, so an input whose noise
// happens to spell a valid id near 2^32 is checked through the stream
// source only.
constexpr VertexId kMaxGraphVertices = VertexId{1} << 20;

void CheckAllReaders(const TempFile& file, const std::string& bytes,
                     bool directed) {
  file.Write(bytes);
  for (VertexId num_vertices : {VertexId{0}, VertexId{40}}) {
    const OracleRead oracle = OracleParse(bytes, num_vertices);
    const bool small = std::all_of(
        oracle.edges.begin(), oracle.edges.end(), [](const Edge& e) {
          return std::max(e.src, e.dst) < kMaxGraphVertices;
        });
    if (small) CheckTryReadEdgeList(bytes, oracle, directed, num_vertices);
    CheckFileSource(file, bytes, oracle, num_vertices);
  }
}

TEST(ReaderFuzzTest, FixedInputsMatchReferenceParser) {
  TempFile file("reader_fuzz_fixed.txt");
  for (const std::string& bytes : FixedInputs()) {
    CheckAllReaders(file, bytes, /*directed=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(ReaderFuzzTest, RandomInputsMatchReferenceParser) {
  TempFile file("reader_fuzz_random.txt");
  InputGenerator gen(20191213);
  for (int i = 0; i < 1500; ++i) {
    CheckAllReaders(file, gen.Next(), /*directed=*/i % 2 == 0);
    if (HasFatalFailure()) return;
  }
}

// The line splitter alone, at block sizes small enough that every line
// straddles a refill and most outgrow the block: same lines and line
// numbers as std::getline.
TEST(ReaderFuzzTest, LineReaderMatchesGetlineAtAnyBlockSize) {
  InputGenerator gen(7);
  std::vector<std::string> inputs = FixedInputs();
  for (int i = 0; i < 300; ++i) inputs.push_back(gen.Next());
  for (const std::string& bytes : inputs) {
    std::vector<std::string> expected;
    std::istringstream ref(bytes);
    for (std::string line; std::getline(ref, line);) expected.push_back(line);
    for (size_t block : {1, 2, 3, 5, 64}) {
      SCOPED_TRACE(Describe(bytes, 0) + " block=" + std::to_string(block));
      std::istringstream in(bytes);
      LineReader reader(in, block);
      std::vector<std::string> lines;
      std::string_view line;
      while (reader.Next(&line)) {
        lines.emplace_back(line);
        ASSERT_EQ(reader.line_number(), lines.size());
      }
      EXPECT_FALSE(reader.read_error());
      ASSERT_EQ(lines, expected);
    }
  }
}

}  // namespace
}  // namespace sgp

#include "graph/io.h"

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "graph/generators.h"

namespace sgp {
namespace {

TEST(IoTest, ReadSimpleEdgeList) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  Graph g = ReadEdgeList(in, /*directed=*/true);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(IoTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# comment\n\n% also comment\n0 1\n");
  Graph g = ReadEdgeList(in, /*directed=*/false);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoTest, ExplicitVertexCount) {
  std::istringstream in("0 1\n");
  Graph g = ReadEdgeList(in, /*directed=*/false, /*num_vertices=*/10);
  EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(IoTest, RoundTripPreservesEdges) {
  Graph original = ErdosRenyi(64, 128, 21);
  std::stringstream buffer;
  WriteEdgeList(original, buffer);
  Graph reloaded =
      ReadEdgeList(buffer, /*directed=*/false, original.num_vertices());
  EXPECT_EQ(original.edges(), reloaded.edges());
}

TEST(IoTest, EmptyInput) {
  std::istringstream in("");
  Graph g = ReadEdgeList(in, /*directed=*/true);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(IoTest, SkipsAndCountsMalformedLines) {
  // A truncated line (one id), a garbage line, and a valid tail.
  std::istringstream in("0 1\n2\nhello world\n1 2\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 2u);
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

TEST(IoTest, CommentsAreNotCountedAsSkipped) {
  std::istringstream in("# header\n\n% another\n0 1\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
}

TEST(IoTest, RejectsOutOfRangeIdsWithDiagnostic) {
  std::istringstream in("0 1\n0 99\n");
  EdgeListReadResult r =
      TryReadEdgeList(in, /*directed=*/false, /*num_vertices=*/10);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
  EXPECT_NE(r.error.find("99"), std::string::npos);
}

TEST(IoTest, RejectsIdsAboveVertexIdSpace) {
  std::istringstream in("0 18446744073709551615\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos);
}

TEST(IoTest, UnopenableFileIsRecoverable) {
  EdgeListReadResult r =
      TryReadEdgeListFile("/nonexistent/edges.txt", /*directed=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/edges.txt", false),
               std::runtime_error);
}

// A path that opens but cannot be read (here a directory: EISDIR) is a
// hard error, not an empty graph.
TEST(IoTest, UnreadableFileIsAnError) {
  const std::string dir = ::testing::TempDir();
  EdgeListReadResult r = TryReadEdgeListFile(dir, /*directed=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "cannot read edge list file: " + dir);
  EXPECT_THROW(ReadEdgeListFile(dir, false), std::runtime_error);
}

TEST(IoTest, StreamReadErrorIsAnError) {
  std::istringstream in("0 1\n");
  in.setstate(std::ios::badbit);
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "cannot read edge list stream");
}

TEST(IoTest, CrlfLineEndings) {
  std::istringstream in("0 1\r\n1 2\r\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.graph.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(IoTest, TabSeparators) {
  std::istringstream in("0\t1\n1\t\t2\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.graph.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(IoTest, LeadingWhitespace) {
  std::istringstream in("  0 1\n\t 1 2\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.graph.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(IoTest, WhitespaceOnlyLinesAreSkipped) {
  // Unlike an empty line, a line of blanks is not a comment: it is
  // malformed and counted.
  std::istringstream in("0 1\n \n\t\n\r\n\n1 2\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 3u);
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

TEST(IoTest, OverflowingIdIsSkipped) {
  // 2^64 does not fit the 64-bit scan: the line is malformed, not an
  // out-of-range id.
  std::istringstream in("0 1\n18446744073709551616 1\n1 2\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 1u);
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

TEST(IoTest, UnterminatedLastLineCounts) {
  std::istringstream in("0 1\n1 2");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.graph.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(IoTest, LineLongerThanReadBlock) {
  const std::string padding(LineReader::kDefaultBlockSize + 17, ' ');
  std::istringstream in("0 1\n" + padding + "1 2\n#" + padding + "\n2 3");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.graph.edges(), (std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(IoTest, WriteEdgeListFormat) {
  GraphBuilder builder(5, /*directed=*/true);
  builder.AddEdge(4, 0);
  builder.AddEdge(0, 3);
  builder.AddEdge(2, 1);
  Graph g = std::move(builder).Finalize();
  std::ostringstream out;
  WriteEdgeList(g, out);
  EXPECT_EQ(out.str(), "4 0\n0 3\n2 1\n");
}

// BlockWriter output across several block flushes, and a text longer
// than a block, must equal the plain ostream insertions.
TEST(IoTest, BlockWriterMatchesStreamInsertion) {
  std::ostringstream expected;
  std::ostringstream actual;
  {
    BlockWriter writer(actual);
    const std::string long_text(BlockWriter::kBlockSize + 5, 'x');
    for (uint64_t i = 0; i < 300000; ++i) {
      const uint64_t value = i * 0x9E3779B97F4A7C15ull >> (i % 64);
      expected << "r " << value << ' ' << i << '\n';
      writer.Append("r ").AppendUint(value).Append(' ').AppendUint(i);
      writer.Append('\n');
      if (i == 150000) {
        expected << long_text;
        writer.Append(long_text);
      }
    }
  }
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(IoTest, LegacyReaderThrowsOnOutOfRange) {
  std::istringstream in("0 99\n");
  EXPECT_THROW(ReadEdgeList(in, /*directed=*/false, /*num_vertices=*/10),
               std::runtime_error);
}

TEST(IoTest, ExtraColumnsAreIgnored) {
  std::istringstream in("0 1 0.5\n1 2 0.25 tagged\n");
  EdgeListReadResult r = TryReadEdgeList(in, /*directed=*/false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.skipped_lines, 0u);
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

}  // namespace
}  // namespace sgp

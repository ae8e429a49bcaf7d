// Randomized oracle test: GraphBuilder's de-duplication and adjacency
// semantics checked against a naive std::set-based reference over many
// random edge sequences.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>
#include "common/random.h"
#include "graph/graph.h"

namespace sgp {
namespace {

struct ReferenceGraph {
  std::set<std::pair<VertexId, VertexId>> edges;  // canonical form
  std::vector<std::set<VertexId>> neighbors;

  ReferenceGraph(VertexId n) : neighbors(n) {}

  void Add(VertexId u, VertexId v, bool directed) {
    if (u == v) return;
    auto key = directed || u <= v ? std::make_pair(u, v)
                                  : std::make_pair(v, u);
    edges.insert(key);
    neighbors[u].insert(v);
    neighbors[v].insert(u);
  }
};

class BuilderOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(BuilderOracleTest, MatchesNaiveReferenceOnRandomSequences) {
  const bool directed = GetParam();
  Rng rng(directed ? 101 : 202);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 2 + static_cast<VertexId>(rng.UniformInt(30));
    const int ops = static_cast<int>(rng.UniformInt(200));
    GraphBuilder builder(n, directed);
    ReferenceGraph ref(n);
    for (int i = 0; i < ops; ++i) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      builder.AddEdge(u, v);
      ref.Add(u, v, directed);
    }
    Graph g = std::move(builder).Finalize();

    // Edge multiset matches (count + canonical membership).
    ASSERT_EQ(g.num_edges(), ref.edges.size()) << "trial " << trial;
    for (const Edge& e : g.edges()) {
      auto key = directed || e.src <= e.dst
                     ? std::make_pair(e.src, e.dst)
                     : std::make_pair(e.dst, e.src);
      ASSERT_TRUE(ref.edges.count(key)) << "trial " << trial;
    }
    // Undirected neighborhoods match exactly.
    for (VertexId u = 0; u < n; ++u) {
      auto nb = g.Neighbors(u);
      ASSERT_EQ(nb.size(), ref.neighbors[u].size())
          << "trial " << trial << " u=" << u;
      ASSERT_TRUE(std::equal(nb.begin(), nb.end(),
                             ref.neighbors[u].begin()));
    }
    // Directed graphs: out/in degree sums both equal the edge count.
    if (directed) {
      uint64_t out_sum = 0;
      uint64_t in_sum = 0;
      for (VertexId u = 0; u < n; ++u) {
        out_sum += g.OutDegree(u);
        in_sum += g.InDegree(u);
      }
      ASSERT_EQ(out_sum, g.num_edges());
      ASSERT_EQ(in_sum, g.num_edges());
    }
  }
}

// Edge ids are positions in g.edges(), so de-duplication must keep the
// first occurrence of every edge in insertion order, element by element.
// The sequences are dense in reversed duplicates ("u v" after "v u") and
// self-loops, the two cases a canonicalizing dedup can get wrong.
TEST_P(BuilderOracleTest, EdgeOrderIsFirstOccurrence) {
  const bool directed = GetParam();
  Rng rng(directed ? 303 : 404);
  for (int trial = 0; trial < 50; ++trial) {
    const VertexId n = 2 + static_cast<VertexId>(rng.UniformInt(20));
    const int ops = static_cast<int>(rng.UniformInt(300));
    GraphBuilder builder(n, directed);
    std::vector<Edge> added;
    for (int i = 0; i < ops; ++i) {
      Edge e{static_cast<VertexId>(rng.UniformInt(n)),
             static_cast<VertexId>(rng.UniformInt(n))};
      switch (rng.UniformInt(4)) {
        case 0:  // reverse an earlier edge
          if (!added.empty()) {
            const Edge& old = added[rng.UniformInt(added.size())];
            e = {old.dst, old.src};
          }
          break;
        case 1:  // repeat an earlier edge
          if (!added.empty()) e = added[rng.UniformInt(added.size())];
          break;
        case 2:  // self-loop
          e.dst = e.src;
          break;
        default:
          break;
      }
      added.push_back(e);
      builder.AddEdge(e.src, e.dst);
    }
    Graph g = std::move(builder).Finalize();

    std::vector<Edge> expected;
    std::set<std::pair<VertexId, VertexId>> seen;
    for (const Edge& e : added) {
      if (e.src == e.dst) continue;
      auto key = directed || e.src <= e.dst ? std::make_pair(e.src, e.dst)
                                            : std::make_pair(e.dst, e.src);
      if (seen.insert(key).second) expected.push_back(e);
    }
    ASSERT_EQ(g.edges(), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Directedness, BuilderOracleTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "directed" : "undirected";
                         });

}  // namespace
}  // namespace sgp

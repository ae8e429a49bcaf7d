#ifndef SGP_TESTS_TEST_UTIL_H_
#define SGP_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "graph/graph.h"
#include "partition/partitioning.h"
#include "partition/score_core.h"

namespace sgp::testing {

/// Builds a graph from an explicit edge list.
inline Graph MakeGraph(VertexId n, bool directed,
                       std::initializer_list<std::pair<VertexId, VertexId>>
                           edges) {
  GraphBuilder b(n, directed);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return std::move(b).Finalize();
}

/// Undirected path 0-1-2-...-(n-1).
inline Graph MakePath(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 0; u + 1 < n; ++u) b.AddEdge(u, u + 1);
  return std::move(b).Finalize();
}

/// Undirected cycle of n vertices.
inline Graph MakeCycle(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 0; u < n; ++u) b.AddEdge(u, (u + 1) % n);
  return std::move(b).Finalize();
}

/// Undirected star: center 0 connected to 1..n-1.
inline Graph MakeStar(VertexId n) {
  GraphBuilder b(n, /*directed=*/false);
  for (VertexId u = 1; u < n; ++u) b.AddEdge(0, u);
  return std::move(b).Finalize();
}

/// The directed 6-vertex example of Figure 10 (Appendix B):
/// edges 1→3, 1→4, 1→6, 2→5, 2→1, 6→4, 6→2(5?)... — we use the paper's
/// visible arcs: {3,6} on P1; {1,4} on P2; {2,5} on P3 with cross arcs.
/// Vertex ids are shifted down by one (0-based).
inline Graph MakeFigure10Graph() {
  // Arcs chosen to exercise masters with multiple gather and scatter
  // mirrors: 0→2, 0→3, 0→5, 1→4, 1→0, 5→3, 5→1, 2→5, 4→2.
  return MakeGraph(6, /*directed=*/true,
                   {{0, 2}, {0, 3}, {0, 5}, {1, 4}, {1, 0},
                    {5, 3}, {5, 1}, {2, 5}, {4, 2}});
}

/// Builds an edge-cut partitioning directly from a vertex→partition map.
inline Partitioning MakeEdgeCutPartitioning(
    const Graph& graph, PartitionId k, std::vector<PartitionId> vertex_map) {
  Partitioning p;
  p.model = CutModel::kEdgeCut;
  p.k = k;
  p.vertex_to_partition = std::move(vertex_map);
  DeriveEdgePlacement(graph, &p);
  return p;
}

/// Builds a vertex-cut partitioning directly from an edge→partition map.
inline Partitioning MakeVertexCutPartitioning(
    const Graph& graph, PartitionId k, std::vector<PartitionId> edge_map) {
  Partitioning p;
  p.model = CutModel::kVertexCut;
  p.k = k;
  p.edge_to_partition = std::move(edge_map);
  DeriveMasterPlacement(graph, &p);
  return p;
}

// A file under the test temp directory, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

  // Replaces the file's contents with `bytes`, verbatim.
  void Write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::string path_;
};

// Sets SGP_FORCE_SCALAR_DISPATCH to `value` (nullptr unsets it) for one
// scope and restores the caller's setting afterwards, so a whole-binary
// forced run (scripts/check.sh) stays forced outside the scope.
class ScopedDispatchOverride {
 public:
  explicit ScopedDispatchOverride(const char* value) {
    const char* old = std::getenv(kVar);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    Set(value);
  }
  ~ScopedDispatchOverride() { Set(had_value_ ? saved_.c_str() : nullptr); }

  ScopedDispatchOverride(const ScopedDispatchOverride&) = delete;
  ScopedDispatchOverride& operator=(const ScopedDispatchOverride&) = delete;

 private:
  static constexpr const char* kVar = "SGP_FORCE_SCALAR_DISPATCH";
  static void Set(const char* value) {
    if (value != nullptr) {
      setenv(kVar, value, 1);
    } else {
      unsetenv(kVar);
    }
  }
  std::string saved_;
  bool had_value_ = false;
};

// Runs `body` once per kFast dispatch tier: the batched tier forced
// through the override, then the hardware tier. `body` receives the tier
// name for failure messages.
template <typename Body>
void ForEachDispatchTier(Body&& body) {
  for (const char* forced : {"1", static_cast<const char*>(nullptr)}) {
    ScopedDispatchOverride scoped(forced);
    body(score::KernelTierName(score::ActiveKernelTier()));
  }
}

}  // namespace sgp::testing

#endif  // SGP_TESTS_TEST_UTIL_H_

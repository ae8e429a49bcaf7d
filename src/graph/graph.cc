#include "graph/graph.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace sgp {

std::span<const VertexId> Graph::OutNeighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return directed_ ? out_.Row(u) : und_.Row(u);
}

std::span<const VertexId> Graph::InNeighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return directed_ ? in_.Row(u) : und_.Row(u);
}

std::span<const VertexId> Graph::Neighbors(VertexId u) const {
  SGP_DCHECK(u < num_vertices_);
  return und_.Row(u);
}

GraphBuilder::GraphBuilder(VertexId num_vertices, bool directed)
    : num_vertices_(num_vertices), directed_(directed) {}

void GraphBuilder::AddEdge(VertexId src, VertexId dst) {
  SGP_CHECK(src < num_vertices_ && dst < num_vertices_);
  if (src == dst) return;  // self-loops carry no partitioning signal
  edges_.push_back({src, dst});
}

namespace {

// Builds a CSR from (source, target) pairs produced by `emit`, which calls
// its callback once per directed arc.
template <typename EmitFn>
Graph::Csr BuildCsr(VertexId n, size_t arc_count_hint, EmitFn&& emit) {
  Graph::Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  emit([&](VertexId src, VertexId) { ++csr.offsets[src + 1]; });
  for (size_t i = 1; i <= n; ++i) csr.offsets[i] += csr.offsets[i - 1];
  csr.targets.resize(csr.offsets[n]);
  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  emit([&](VertexId src, VertexId dst) { csr.targets[cursor[src]++] = dst; });
  (void)arc_count_hint;
  return csr;
}

// Marks the first occurrence of every edge, so that de-duplication keeps
// the natural stream order. For undirected graphs an edge is identified by
// its unordered endpoint pair. A stable counting sort groups edge indices
// by canonical source; each bucket then lists its edges in insertion
// order, so marking a target the first time its bucket reaches it keeps
// exactly the first occurrence.
std::vector<bool> FirstOccurrences(const std::vector<Edge>& edges,
                                   VertexId n, bool directed) {
  auto canonical = [directed](const Edge& e) -> Edge {
    if (directed || e.src <= e.dst) return e;
    return {e.dst, e.src};
  };
  SGP_CHECK(edges.size() <= std::numeric_limits<uint32_t>::max());
  // bucket_end[u] starts as the first slot of u's bucket and ends, after
  // the scatter, one past its last slot.
  std::vector<uint64_t> bucket_end(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++bucket_end[canonical(e).src + 1];
  for (size_t u = 1; u <= n; ++u) bucket_end[u] += bucket_end[u - 1];
  std::vector<uint32_t> order(edges.size());
  for (uint32_t i = 0; i < edges.size(); ++i) {
    order[bucket_end[canonical(edges[i]).src]++] = i;
  }
  std::vector<bool> keep(edges.size(), true);
  std::vector<VertexId> last_seen(n, kInvalidVertex);
  uint64_t begin = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (uint64_t j = begin; j < bucket_end[u]; ++j) {
      VertexId& seen = last_seen[canonical(edges[order[j]]).dst];
      if (seen == u) {
        keep[order[j]] = false;
      } else {
        seen = u;
      }
    }
    begin = bucket_end[u];
  }
  return keep;
}

// Returns the rows of `csr` sorted and free of duplicate targets, without
// a comparison sort. The arc set must be symmetric, as the undirected
// adjacency is: walking the rows in increasing vertex order t and
// appending t to the row of each neighbour s fills every row in
// increasing target order, so a duplicate is always the row's last entry.
Graph::Csr SortSymmetricRows(VertexId n, const Graph::Csr& csr) {
  Graph::Csr sorted;
  sorted.targets.resize(csr.targets.size());
  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (VertexId t = 0; t < n; ++t) {
    for (VertexId s : csr.Row(t)) {
      uint64_t& next = cursor[s];
      if (next > csr.offsets[s] && sorted.targets[next - 1] == t) continue;
      sorted.targets[next++] = t;
    }
  }
  // Close the gaps that dropped duplicates left at the row ends.
  sorted.offsets.assign(static_cast<size_t>(n) + 1, 0);
  auto out = sorted.targets.begin();
  for (VertexId u = 0; u < n; ++u) {
    out = std::copy(sorted.targets.begin() + csr.offsets[u],
                    sorted.targets.begin() + cursor[u], out);
    sorted.offsets[u + 1] = out - sorted.targets.begin();
  }
  sorted.targets.erase(out, sorted.targets.end());
  return sorted;
}

}  // namespace

Graph GraphBuilder::Finalize() && {
  const std::vector<bool> keep =
      FirstOccurrences(edges_, num_vertices_, directed_);
  Graph g;
  g.num_vertices_ = num_vertices_;
  g.directed_ = directed_;
  g.edges_.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (keep[i]) g.edges_.push_back(edges_[i]);
  }
  edges_ = std::vector<Edge>();  // release before the CSR builds

  const VertexId n = num_vertices_;
  // Undirected adjacency: both directions of every edge, then sorted and
  // de-duplicated.
  {
    const Graph::Csr arcs = BuildCsr(n, g.edges_.size() * 2, [&](auto&& cb) {
      for (const Edge& e : g.edges_) {
        cb(e.src, e.dst);
        cb(e.dst, e.src);
      }
    });
    g.und_ = SortSymmetricRows(n, arcs);
  }

  if (directed_) {
    g.out_ = BuildCsr(n, g.edges_.size(), [&](auto&& cb) {
      for (const Edge& e : g.edges_) cb(e.src, e.dst);
    });
    g.in_ = BuildCsr(n, g.edges_.size(), [&](auto&& cb) {
      for (const Edge& e : g.edges_) cb(e.dst, e.src);
    });
  }
  return g;
}

GraphStats ComputeStats(const Graph& graph) {
  GraphStats s;
  s.num_vertices = graph.num_vertices();
  s.num_edges = graph.num_edges();
  s.directed = graph.directed();
  uint64_t total = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    uint32_t d = graph.Degree(u);
    total += d;
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree = graph.num_vertices() == 0
                     ? 0
                     : static_cast<double>(total) /
                           static_cast<double>(graph.num_vertices());
  return s;
}

}  // namespace sgp

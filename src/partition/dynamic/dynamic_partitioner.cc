#include "partition/dynamic/dynamic_partitioner.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "partition/incidence.h"

namespace sgp {

namespace {

// The shared state core is configured from PartitionConfig; project the
// dynamic options onto one (homogeneous cluster, loads only).
PartitionConfig StateConfig(const DynamicOptions& options) {
  PartitionConfig config;
  config.k = options.k;
  config.balance_slack = options.balance_slack;
  config.seed = options.seed;
  return config;
}

}  // namespace

DynamicPartitioner::DynamicPartitioner(const DynamicOptions& options)
    : options_(options), state_(StateConfig(options)),
      disabled_(options.k, 0), alive_k_(options.k) {
  SGP_CHECK(options.k > 0);
  SGP_CHECK(options.balance_slack >= 1.0);
  SGP_CHECK(options.migration_gain >= 1.0);
}

void DynamicPartitioner::Bootstrap(const Graph& graph,
                                   const Partitioning& partitioning) {
  SGP_CHECK(partitioning.k == options_.k);
  SGP_CHECK(partitioning.vertex_to_partition.size() == graph.num_vertices());
  EnsureVertex(graph.num_vertices() == 0 ? 0 : graph.num_vertices() - 1);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    assignment_[v] = partitioning.vertex_to_partition[v];
    state_.AddLoad(assignment_[v]);
    ++placed_vertices_;
  }
  for (const Edge& e : graph.edges()) {
    adjacency_[e.src].push_back(e.dst);
    adjacency_[e.dst].push_back(e.src);
    NoteNeighbor(e.src, assignment_[e.dst]);
    NoteNeighbor(e.dst, assignment_[e.src]);
  }
}

void DynamicPartitioner::EnsureVertex(VertexId v) {
  if (v < assignment_.size()) return;
  assignment_.resize(static_cast<size_t>(v) + 1, kInvalidPartition);
  neighbor_counts_.resize(static_cast<size_t>(v) + 1);
  adjacency_.resize(static_cast<size_t>(v) + 1);
}

double DynamicPartitioner::Capacity(PartitionId) const {
  return std::max(1.0, options_.balance_slack *
                           static_cast<double>(placed_vertices_) /
                           static_cast<double>(alive_k_));
}

PartitionId DynamicPartitioner::LeastLoadedAlive() const {
  PartitionId best = kInvalidPartition;
  for (PartitionId p = 0; p < options_.k; ++p) {
    if (disabled_[p]) continue;
    if (best == kInvalidPartition || state_.load(p) < state_.load(best)) {
      best = p;
    }
  }
  SGP_CHECK(best != kInvalidPartition);
  return best;
}

void DynamicPartitioner::NoteNeighbor(VertexId v, PartitionId p) {
  auto& vec = neighbor_counts_[v];
  auto it = std::find_if(vec.begin(), vec.end(),
                         [p](const auto& pr) { return pr.first == p; });
  if (it == vec.end()) {
    vec.emplace_back(p, 1u);
  } else {
    ++it->second;
  }
}

void DynamicPartitioner::ForgetNeighbor(VertexId v, PartitionId p) {
  auto& vec = neighbor_counts_[v];
  auto it = std::find_if(vec.begin(), vec.end(),
                         [p](const auto& pr) { return pr.first == p; });
  if (it == vec.end()) return;
  if (--it->second == 0) {
    *it = vec.back();
    vec.pop_back();
  }
}

PartitionId DynamicPartitioner::PlaceNew(VertexId v) {
  // LDG-style: most already-present neighbors, discounted by fill level;
  // a vertex with no placed neighbors is hashed.
  PartitionId best = kInvalidPartition;
  double best_score = 0;
  for (const auto& [p, count] : neighbor_counts_[v]) {
    if (disabled_[p]) continue;
    double size = static_cast<double>(state_.load(p));
    double cap = Capacity(p);
    if (size + 1.0 > cap) continue;
    double score = static_cast<double>(count) * (1.0 - size / cap);
    if (best == kInvalidPartition || score > best_score) {
      best_score = score;
      best = p;
    }
  }
  if (best == kInvalidPartition) {
    best = static_cast<PartitionId>(
        HashU64Seeded(v, options_.seed) % options_.k);
    // Respect capacity (and dead partitions) even for hashed placements.
    if (disabled_[best] ||
        static_cast<double>(state_.load(best)) + 1.0 > Capacity(best)) {
      best = LeastLoadedAlive();
    }
  }
  assignment_[v] = best;
  state_.AddLoad(best);
  ++placed_vertices_;
  return best;
}

uint64_t DynamicPartitioner::MoveVertex(VertexId v, PartitionId to) {
  const PartitionId from = assignment_[v];
  state_.RemoveLoad(from);
  state_.AddLoad(to);
  assignment_[v] = to;
  for (VertexId w : adjacency_[v]) {
    ForgetNeighbor(w, from);
    NoteNeighbor(w, to);
  }
  const uint64_t bytes =
      options_.migration_cost.bytes_per_vertex_record +
      adjacency_[v].size() *
          static_cast<uint64_t>(options_.migration_cost.bytes_per_adjacency_entry);
  ++total_migrations_;
  total_migration_bytes_ += bytes;
  return bytes;
}

bool DynamicPartitioner::MaybeMigrate(VertexId v) {
  const PartitionId cur = assignment_[v];
  uint32_t cur_count = 0;
  PartitionId best = cur;
  uint32_t best_count = 0;
  for (const auto& [p, count] : neighbor_counts_[v]) {
    if (p == cur) cur_count = count;
    if (disabled_[p]) continue;
    if (count > best_count) {
      best_count = count;
      best = p;
    }
  }
  if (best == cur) return false;
  if (static_cast<double>(best_count) <
      options_.migration_gain * static_cast<double>(cur_count) + 1.0) {
    return false;
  }
  if (static_cast<double>(state_.load(best)) + 1.0 > Capacity(best)) {
    return false;
  }

  MoveVertex(v, best);
  return true;
}

uint32_t DynamicPartitioner::AddEdge(VertexId u, VertexId v) {
  SGP_CHECK(u != v);
  EnsureVertex(std::max(u, v));
  bool noted_u = false;
  bool noted_v = false;
  if (assignment_[u] == kInvalidPartition &&
      assignment_[v] == kInvalidPartition) {
    PlaceNew(u);  // no signal yet: hashed placement
  }
  if (assignment_[u] == kInvalidPartition) {
    // Seed the synopsis with the placed endpoint before deciding.
    NoteNeighbor(u, assignment_[v]);
    noted_u = true;
    PlaceNew(u);
  } else if (assignment_[v] == kInvalidPartition) {
    NoteNeighbor(v, assignment_[u]);
    noted_v = true;
    PlaceNew(v);
  }
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  if (!noted_u) NoteNeighbor(u, assignment_[v]);
  if (!noted_v) NoteNeighbor(v, assignment_[u]);
  uint32_t migrations = 0;
  migrations += MaybeMigrate(u) ? 1 : 0;
  migrations += MaybeMigrate(v) ? 1 : 0;
  return migrations;
}

const char* ReshapeStatusName(ReshapeStatus status) {
  switch (status) {
    case ReshapeStatus::kOk:
      return "ok";
    case ReshapeStatus::kInvalidPartition:
      return "invalid-partition";
    case ReshapeStatus::kAlreadyDisabled:
      return "already-disabled";
    case ReshapeStatus::kLastAlive:
      return "last-alive";
  }
  return "unknown";
}

DrainReport DynamicPartitioner::DrainPartition(PartitionId dead) {
  DrainReport report;
  if (dead >= options_.k) {
    report.status = ReshapeStatus::kInvalidPartition;
    return report;
  }
  if (disabled_[dead]) {
    report.status = ReshapeStatus::kAlreadyDisabled;
    return report;
  }
  if (alive_k_ <= 1) {
    report.status = ReshapeStatus::kLastAlive;
    return report;
  }
  disabled_[dead] = 1;
  --alive_k_;
  for (VertexId v = 0; v < assignment_.size(); ++v) {
    if (assignment_[v] != dead) continue;
    // Same placement rule as PlaceNew, restricted to survivors: most
    // neighbors, discounted by fill, least-loaded when nothing fits.
    PartitionId best = kInvalidPartition;
    double best_score = 0;
    for (const auto& [p, count] : neighbor_counts_[v]) {
      if (disabled_[p]) continue;
      double size = static_cast<double>(state_.load(p));
      double cap = Capacity(p);
      if (size + 1.0 > cap) continue;
      double score = static_cast<double>(count) * (1.0 - size / cap);
      if (best == kInvalidPartition || score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best == kInvalidPartition) best = LeastLoadedAlive();
    report.migration_bytes += MoveVertex(v, best);
    ++report.moved_vertices;
  }
  SGP_CHECK(state_.load(dead) == 0);
  return report;
}

PartitionId DynamicPartitioner::AddPartition() {
  const PartitionId fresh = state_.AddPartition();
  SGP_CHECK(fresh == options_.k);
  ++options_.k;
  disabled_.push_back(0);
  ++alive_k_;
  return fresh;
}

SplitReport DynamicPartitioner::SplitPartition(PartitionId p) {
  SplitReport report;
  if (p >= options_.k) {
    report.status = ReshapeStatus::kInvalidPartition;
    return report;
  }
  if (disabled_[p]) {
    report.status = ReshapeStatus::kAlreadyDisabled;
    return report;
  }
  std::vector<VertexId> members;
  for (VertexId v = 0; v < assignment_.size(); ++v) {
    if (assignment_[v] == p) members.push_back(v);
  }
  const PartitionId fresh = AddPartition();
  report.new_partition = fresh;
  const uint64_t target = members.size() / 2;
  if (target == 0) return report;  // nothing to halve; fresh slot stays empty

  // Locality-preserving halving: grow BFS regions inside p's induced
  // subgraph, seeded at the best-connected resident, until half of p has
  // moved. Disconnected leftovers seed new regions in id order, so the
  // result is deterministic regardless of insertion history.
  std::vector<char> moved_flag(assignment_.size(), 0);
  std::vector<VertexId> queue;
  queue.reserve(target);
  size_t head = 0;
  VertexId seed = members.front();
  size_t seed_degree = adjacency_[seed].size();
  for (VertexId v : members) {
    if (adjacency_[v].size() > seed_degree) {
      seed = v;
      seed_degree = adjacency_[v].size();
    }
  }
  size_t next_member = 0;  // fallback scan cursor for disconnected parts
  queue.push_back(seed);
  moved_flag[seed] = 1;
  while (report.moved_vertices < target) {
    if (head == queue.size()) {
      while (next_member < members.size() &&
             (moved_flag[members[next_member]] != 0)) {
        ++next_member;
      }
      if (next_member == members.size()) break;
      moved_flag[members[next_member]] = 1;
      queue.push_back(members[next_member]);
    }
    const VertexId v = queue[head++];
    report.migration_bytes += MoveVertex(v, fresh);
    ++report.moved_vertices;
    for (VertexId w : adjacency_[v]) {
      if (w >= moved_flag.size() || moved_flag[w] || assignment_[w] != p) {
        continue;
      }
      moved_flag[w] = 1;
      queue.push_back(w);
    }
  }
  return report;
}

uint64_t DynamicPartitioner::SynopsisBytes() const {
  uint64_t synopsis_entries = 0;
  for (const auto& counts : neighbor_counts_) {
    synopsis_entries += counts.size();
  }
  uint64_t adjacency_entries = 0;
  for (const auto& adj : adjacency_) adjacency_entries += adj.size();
  return state_.SynopsisBytes() +
         assignment_.size() * sizeof(PartitionId) +
         synopsis_entries * (sizeof(PartitionId) + sizeof(uint32_t)) +
         adjacency_entries * sizeof(VertexId);
}

PartitionId DynamicPartitioner::PartitionOf(VertexId v) const {
  if (v >= assignment_.size()) return kInvalidPartition;
  return assignment_[v];
}

Partitioning DynamicPartitioner::Snapshot(const Graph& graph) const {
  SGP_CHECK(graph.num_vertices() >= assignment_.size());
  Partitioning p;
  p.model = CutModel::kEdgeCut;
  p.k = options_.k;
  p.vertex_to_partition.assign(graph.num_vertices(), kInvalidPartition);
  for (VertexId v = 0; v < assignment_.size(); ++v) {
    p.vertex_to_partition[v] = assignment_[v];
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (p.vertex_to_partition[v] == kInvalidPartition) {
      p.vertex_to_partition[v] = static_cast<PartitionId>(
          HashU64Seeded(v, options_.seed) % options_.k);
    }
  }
  p.state_bytes = SynopsisBytes();
  DeriveEdgePlacement(graph, &p);
  return p;
}

FailoverRepair RepairAfterWorkerLoss(const Graph& graph,
                                     const Partitioning& p, PartitionId dead,
                                     const DynamicOptions& options,
                                     const MigrationCostModel& cost) {
  SGP_CHECK(p.k > 1);
  SGP_CHECK(dead < p.k);
  SGP_CHECK(p.vertex_to_partition.size() == graph.num_vertices());
  SGP_CHECK(p.edge_to_partition.size() == graph.num_edges());
  const Incidence incidence(graph, p.edge_to_partition, p.k);

  FailoverRepair repair;
  if (p.model == CutModel::kEdgeCut) {
    // No surviving copies of the dead worker's vertices: re-place them via
    // the dynamic partitioner's neighbor-majority migration.
    DynamicOptions opts = options;
    opts.k = p.k;
    opts.migration_cost = cost;
    DynamicPartitioner dp(opts);
    dp.Bootstrap(graph, p);
    const DrainReport drain = dp.DrainPartition(dead);
    SGP_CHECK(drain.ok());
    repair.partitioning = dp.Snapshot(graph);
    repair.partitioning.model = p.model;
    repair.migration_bytes = drain.migration_bytes;
  } else {
    // Vertex-cut / hybrid: every orphaned master usually has surviving
    // replicas — promote the one holding the most still-live incident
    // edges (the master winner rule over the row minus the dead worker);
    // its edges on the dead worker follow the source's new master.
    Partitioning q = p;
    // Running master loads so replica-less orphans spread evenly.
    std::vector<uint64_t> master_loads(p.k, 0);
    for (PartitionId part : p.vertex_to_partition) ++master_loads[part];
    auto least_loaded_alive = [&]() {
      PartitionId best = kInvalidPartition;
      for (PartitionId part = 0; part < p.k; ++part) {
        if (part == dead) continue;
        if (best == kInvalidPartition ||
            master_loads[part] < master_loads[best]) {
          best = part;
        }
      }
      SGP_CHECK(best != kInvalidPartition);
      return best;
    };
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (p.vertex_to_partition[v] != dead) continue;
      PartitionId best = MostIncident(incidence.Row(v), dead);
      if (best == kInvalidPartition) best = least_loaded_alive();
      --master_loads[dead];
      ++master_loads[best];
      q.vertex_to_partition[v] = best;
    }
    const auto& edges = graph.edges();
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (q.edge_to_partition[e] == dead) {
        q.edge_to_partition[e] = q.vertex_to_partition[edges[e].src];
      }
    }
    repair.partitioning = std::move(q);
  }

  // Migration volume: diff the repaired placement against the original.
  const Partitioning& q = repair.partitioning;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (q.vertex_to_partition[v] == p.vertex_to_partition[v]) continue;
    ++repair.moved_masters;
    // The new master differs from the old one, so it had a replica iff it
    // held one of v's incident edges.
    const auto row = incidence.Row(v);
    if (IndexOf(row, q.vertex_to_partition[v]) == row.size()) {
      ++repair.copied_vertices;
    }
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (q.edge_to_partition[e] != p.edge_to_partition[e]) {
      ++repair.moved_edges;
    }
  }
  if (p.model == CutModel::kEdgeCut) {
    // Unified MigrationCostModel definition, already accumulated move by
    // move inside DrainPartition: every moved master ships its record plus
    // its adjacency. No surviving copies exist on edge-cut, so copied ==
    // moved.
    repair.copied_vertices = repair.moved_masters;
  } else {
    repair.migration_bytes =
        repair.copied_vertices * cost.bytes_per_vertex_record +
        repair.moved_edges * cost.bytes_per_adjacency_entry;
  }
  return repair;
}

}  // namespace sgp

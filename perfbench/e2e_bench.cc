// End-to-end benchmark of the partitioning path a user runs: edge-list
// file -> parse -> partition -> finalize masters/replicas -> metrics ->
// write. One process, one thread, jobs back to back in a closed loop; every
// job uses the default PartitionConfig except k and seed. The library is
// driven only through its public entry points.
//
// Usage:
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny]
//
// --trace 0 prints the end-to-end metrics (median job time, set-up time,
// peak RSS, quality, success rate). --trace 1 alternates traced and
// untraced jobs, wraps every layer call of a traced job in a Span, and
// prints the per-layer split of the median traced job; the spans are
// exported to <work-dir>/trace-<workload>.json. --tiny shrinks every input
// to scale 10 for smoke tests. The last stdout line is one JSON object
// with the keys correct, attempted, failed and metrics.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/partitioner.h"
#include "partition/partitioning.h"
#include "stream/source.h"
#include "timed_source.h"

namespace perfbench {
namespace {

using namespace sgp;

enum class InputKind { kTwitter, kUk2007, kUsaroad };
enum class JobPath { kReadFile, kStreamFile, kInMemory };

struct Workload {
  const char* name;
  InputKind input;
  uint32_t scale;  // log2 of the vertex count, as in MakeDataset
  JobPath path;
  const char* algorithm;
  PartitionId k;
  bool metrics_in_job;  // ComputeMetrics is part of the user's path
  bool write_output;    // WritePartitioningFile is part of the user's path
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"tool-hdrf", InputKind::kTwitter, 17, JobPath::kReadFile, "HDRF", 32,
     true, true},
    {"stream-2ps", InputKind::kUk2007, 17, JobPath::kStreamFile, "2PS", 32,
     false, true},
    {"mem-hdrf-k128", InputKind::kTwitter, 17, JobPath::kInMemory, "HDRF",
     128, true, false},
    {"mem-fnl-road", InputKind::kUsaroad, 20, JobPath::kInMemory, "FNL", 128,
     true, false},
};

constexpr uint32_t kTinyScale = 10;
// Set-up is repeated and its median reported, so one slow generation
// (another process on the host) does not read as a set-up regression.
constexpr int kSetupReps = 3;
constexpr uint64_t kMinJobs = 3;
// The longest measuring window accepted; run.py's timeout assumes it.
constexpr double kMaxSeconds = 60;
// Trace mode needs at least two traced and two untraced jobs.
constexpr uint64_t kMinJobsTraced = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = "perfbench-work";
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// The graph/datasets.cc analogues of the paper's graphs, with the
// benchmark's seed in place of each dataset's fixed seed.
Graph MakeInputGraph(InputKind kind, uint32_t scale, uint64_t seed) {
  switch (kind) {
    case InputKind::kTwitter: {
      RmatParams p;
      p.scale = scale;
      p.edge_factor = 16;
      return Rmat(p, seed);
    }
    case InputKind::kUk2007: {
      RmatParams p;
      p.scale = scale;
      p.edge_factor = 18;
      p.a = 0.65;
      p.b = 0.15;
      p.c = 0.15;
      return Rmat(p, seed);
    }
    case InputKind::kUsaroad: {
      const uint32_t side = 1u << (scale / 2);
      return RoadNetwork(side, side, /*target_avg_degree=*/2.5, seed);
    }
  }
  return {};
}

// FNV-1a over an edge list, in order.
uint64_t EdgesHash(const std::vector<Edge>& edges) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    h ^= (static_cast<uint64_t>(e.src) << 32) | e.dst;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Input {
  // The in-memory workloads' input graph. The file workloads drop it after
  // writing the file: a user of those paths never holds it, so it must not
  // count in their peak RSS. The checker re-reads the file instead.
  Graph graph;
  std::string edge_list_path;  // empty for in-memory workloads
  uint64_t edge_list_bytes = 0;
  VertexId num_vertices = 0;
  uint64_t num_edges = 0;
  bool directed = false;
  uint64_t edges_hash = 0;  // EdgesHash of the generated edge list
};

Input MakeInput(const Workload& w, uint32_t scale, uint64_t seed,
                const std::string& work_dir) {
  Input in;
  in.graph = MakeInputGraph(w.input, scale, seed);
  in.num_vertices = in.graph.num_vertices();
  in.num_edges = in.graph.num_edges();
  in.directed = in.graph.directed();
  in.edges_hash = EdgesHash(in.graph.edges());
  if (w.path != JobPath::kInMemory) {
    in.edge_list_path = work_dir + "/" + w.name + ".edges";
    WriteEdgeListFile(in.graph, in.edge_list_path);
    in.edge_list_bytes = std::filesystem::file_size(in.edge_list_path);
    in.graph = Graph();
  }
  return in;
}

// ---------------------------------------------------------------------------
// One job: the user's path, timed end to end
// ---------------------------------------------------------------------------

struct JobResult {
  bool ok = true;
  std::string error;
  double seconds = 0;
  Graph parsed;  // kReadFile: the graph the reader built
  uint64_t skipped_lines = 0;
  Partitioning partitioning;
  std::optional<PartitionMetrics> metrics;  // when metrics_in_job
  // kStreamFile only.
  uint64_t streamed_edges = 0;
  VertexId streamed_vertices = 0;
  uint64_t source_passes = 0;
  uint64_t source_edges_pulled = 0;
};

// Runs one job. With a trace buffer every layer call is wrapped in a Span
// under one "job" span; with nullptr the spans are inert.
JobResult RunJob(const Workload& w, const Input& in, const Partitioner& algo,
                 const PartitionConfig& config, const std::string& output_path,
                 TraceBuffer* trace) {
  JobResult r;
  Timer timer;
  {
    Span job(trace, "job");
    const Graph* graph = &in.graph;
    switch (w.path) {
      case JobPath::kReadFile: {
        EdgeListReadResult read;
        {
          Span span(trace, "io.parse");
          read = TryReadEdgeListFile(in.edge_list_path, in.directed);
        }
        if (!read.ok) {
          r.ok = false;
          r.error = read.error;
          break;
        }
        r.skipped_lines = read.skipped_lines;
        r.parsed = std::move(read.graph);
        graph = &r.parsed;
        Span span(trace, "partition.place");
        r.partitioning = algo.Run(*graph, config);
        break;
      }
      case JobPath::kStreamFile: {
        EdgeListFileSource file(in.edge_list_path);
        TimedEdgeSource source(file, trace);
        StreamRunResult run;
        {
          Span span(trace, "partition.place");
          run = algo.RunOnSource(source, config);
        }
        r.ok = run.ok;
        r.error = run.error;
        r.skipped_lines = file.skipped_lines();
        r.streamed_edges = run.num_edges;
        r.streamed_vertices = run.num_vertices;
        r.source_passes = source.passes();
        r.source_edges_pulled = source.edges_pulled();
        r.partitioning = std::move(run.partitioning);
        break;
      }
      case JobPath::kInMemory: {
        Span span(trace, "partition.place");
        r.partitioning = algo.Run(in.graph, config);
        break;
      }
    }
    if (r.ok && w.metrics_in_job) {
      Span span(trace, "metrics.compute");
      r.metrics = ComputeMetrics(*graph, r.partitioning);
    }
    if (r.ok && w.write_output) {
      Span span(trace, "output.write");
      WritePartitioningFile(r.partitioning, output_path);
    }
  }
  r.seconds = timer.ElapsedSeconds();
  return r;
}

// ---------------------------------------------------------------------------
// Correctness checks (outside the timed region)
// ---------------------------------------------------------------------------

uint64_t Fingerprint(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(p.k);
  mix(static_cast<uint64_t>(p.model));
  for (PartitionId x : p.vertex_to_partition) mix(x);
  for (PartitionId x : p.edge_to_partition) mix(x);
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class Checker {
 public:
  Checker(const Workload& w, const Input& in, const PartitionerInfo& info,
          std::string output_path)
      : w_(w), in_(in), info_(info), output_path_(std::move(output_path)) {}

  // Checks one job; returns the failures (empty when correct). A full
  // check re-derives and re-reads the result; the cheap check compares the
  // fingerprint with the first job's, which every job of a run must
  // reproduce. Spans for the re-derivation land in `trace`.
  std::vector<std::string> Check(const JobResult& job, bool full,
                                 TraceBuffer* trace) {
    std::vector<std::string> fails;
    if (!job.ok) {
      fails.push_back("job failed: " + job.error);
      return fails;
    }
    if (job.skipped_lines != 0) {
      fails.push_back("reader skipped " + std::to_string(job.skipped_lines) +
                      " line(s) of generated input");
    }
    const uint64_t lines = in_.num_edges;
    if (w_.path == JobPath::kReadFile &&
        (job.parsed.num_edges() != lines ||
         EdgesHash(job.parsed.edges()) != in_.edges_hash)) {
      fails.push_back("parsed edges differ from the generated edge list");
    }
    if (w_.path == JobPath::kStreamFile) {
      if (job.streamed_edges != lines) {
        fails.push_back("streamed " + std::to_string(job.streamed_edges) +
                        " edges, generated " + std::to_string(lines));
      }
      if (job.source_passes != info_.passes ||
          job.source_edges_pulled != info_.passes * lines) {
        fails.push_back("source pulled " +
                        std::to_string(job.source_edges_pulled) +
                        " edges in " + std::to_string(job.source_passes) +
                        " passes");
      }
    }
    const Partitioning& p = job.partitioning;
    const uint64_t fp = Fingerprint(p);
    if (!fingerprint_) {
      fingerprint_ = fp;
    } else if (*fingerprint_ != fp) {
      fails.push_back("fingerprint " + Hex(fp) + " differs from first job " +
                      Hex(*fingerprint_));
    }
    if (!full) return fails;

    std::optional<Graph> reference;
    const Graph* graph = GraphOf(job, &reference, &fails);
    if (graph == nullptr) return fails;
    const Graph& g = *graph;
    ValidatePartitioning(g, p);  // aborts on a violated invariant
    if (p.model == CutModel::kVertexCut) {
      Partitioning copy = p;
      {
        Span span(trace, "finalize.master");
        DeriveMasterPlacement(g, &copy);
      }
      if (copy.vertex_to_partition != p.vertex_to_partition) {
        fails.push_back("re-derived masters differ from the result");
      }
    } else if (p.model == CutModel::kEdgeCut) {
      Partitioning copy = p;
      DeriveEdgePlacement(g, &copy);
      if (copy.edge_to_partition != p.edge_to_partition) {
        fails.push_back("re-derived edge placement differs from the result");
      }
    }
    PartitionMetrics metrics =
        job.metrics ? *job.metrics : ComputeMetrics(g, p);
    ReplicaSets replicas;
    {
      Span span(trace, "metrics.replica_sets");
      replicas = ComputeReplicaSets(g, p);
    }
    CheckReplicas(g, p, replicas, metrics, &fails);
    if (w_.write_output) {
      Partitioning back = ReadPartitioningFile(g, output_path_);
      if (back.k != p.k || back.model != p.model ||
          back.vertex_to_partition != p.vertex_to_partition ||
          back.edge_to_partition != p.edge_to_partition) {
        fails.push_back("written partitioning reads back different");
      }
    }
    if (!metrics_) metrics_ = metrics;
    return fails;
  }

  std::optional<uint64_t> fingerprint() const { return fingerprint_; }
  const std::optional<PartitionMetrics>& metrics() const { return metrics_; }

 private:
  // The graph a job's result refers to. A streamed result spans only the
  // ids seen in the file, so the file is re-read over that id space into
  // `storage` and checked against the generated edge list. Returns nullptr
  // (with a failure) when that graph cannot be had.
  const Graph* GraphOf(const JobResult& job, std::optional<Graph>* storage,
                       std::vector<std::string>* fails) {
    if (w_.path == JobPath::kReadFile) return &job.parsed;
    if (w_.path == JobPath::kInMemory) return &in_.graph;
    EdgeListReadResult read = TryReadEdgeListFile(
        in_.edge_list_path, in_.directed, job.streamed_vertices);
    if (!read.ok || read.skipped_lines != 0 ||
        read.graph.num_vertices() != job.streamed_vertices ||
        read.graph.num_edges() != in_.num_edges ||
        EdgesHash(read.graph.edges()) != in_.edges_hash) {
      fails->push_back("re-read edge list differs from the generated one" +
                       (read.ok ? "" : ": " + read.error));
      return nullptr;
    }
    return &storage->emplace(std::move(read.graph));
  }

  // Recounts every replica set A(u) = {master} + partitions of incident
  // edges with a per-vertex bit set, independently of ComputeReplicaSets,
  // and checks both the sets and ComputeMetrics' replication factor.
  static void CheckReplicas(const Graph& g, const Partitioning& p,
                            const ReplicaSets& replicas,
                            const PartitionMetrics& metrics,
                            std::vector<std::string>* fails) {
    const VertexId n = g.num_vertices();
    const size_t words = (static_cast<size_t>(p.k) + 63) / 64;
    std::vector<uint64_t> bits(static_cast<size_t>(n) * words, 0);
    auto set = [&](VertexId u, PartitionId part) {
      bits[u * words + part / 64] |= uint64_t{1} << (part % 64);
    };
    for (VertexId u = 0; u < n; ++u) set(u, p.vertex_to_partition[u]);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      set(g.edges()[e].src, p.edge_to_partition[e]);
      set(g.edges()[e].dst, p.edge_to_partition[e]);
    }
    uint64_t total = 0;
    VertexId mismatched = 0;
    for (VertexId u = 0; u < n; ++u) {
      uint64_t count = 0;
      for (size_t i = 0; i < words; ++i) {
        count += std::popcount(bits[u * words + i]);
      }
      total += count;
      const std::span<const PartitionId> of = replicas.Of(u);
      bool same = of.size() == count;
      for (PartitionId part : of) {
        same = same && part < p.k &&
               (bits[u * words + part / 64] >> (part % 64) & 1) != 0;
      }
      if (!same) ++mismatched;
    }
    if (mismatched != 0) {
      fails->push_back(std::to_string(mismatched) +
                       " vertices' replica sets differ from the recount");
    }
    const double rf =
        n == 0 ? 0 : static_cast<double>(total) / static_cast<double>(n);
    if (rf != metrics.replication_factor) {
      fails->push_back("ComputeMetrics RF " +
                       FormatJsonDouble(metrics.replication_factor) +
                       " differs from the recounted " + FormatJsonDouble(rf));
    }
  }

  const Workload& w_;
  const Input& in_;
  const PartitionerInfo& info_;
  std::string output_path_;
  std::optional<uint64_t> fingerprint_;
  std::optional<PartitionMetrics> metrics_;
};

// ---------------------------------------------------------------------------
// Per-layer split of a traced job
// ---------------------------------------------------------------------------

// Self time per span name: a span's duration minus the part its children
// cover. The "job" span's self time is the job time no layer accounts for.
std::map<std::string, double> SelfTimes(const std::vector<TraceEvent>& events) {
  std::map<uint32_t, double> child_time;
  for (const TraceEvent& e : events) {
    if (e.parent != TraceEvent::kNoParent) {
      child_time[e.parent] += e.end - e.start;
    }
  }
  std::map<std::string, double> self;
  for (const TraceEvent& e : events) {
    self[e.name] += (e.end - e.start) - child_time[e.id];
  }
  return self;
}

struct TracedJob {
  double seconds = 0;     // wall time of the whole job
  double job_span_s = 0;  // duration of its "job" span
  std::map<std::string, double> self;
  uint64_t candidates = 0;
  uint64_t batches = 0;
  uint64_t cluster_moves = 0;
  uint64_t neighbor_scans = 0;
  uint64_t state_bytes = 0;
  uint64_t edges = 0;
  uint64_t output_bytes = 0;
  uint64_t skipped_lines = 0;
  uint64_t source_passes = 0;
  uint64_t source_edges_pulled = 0;
};

TracedJob SummarizeTracedJob(const Workload& w, const Input& in,
                             const JobResult& job,
                             const std::vector<TraceEvent>& events,
                             MetricsRegistry& registry) {
  TracedJob t;
  t.seconds = job.seconds;
  t.self = SelfTimes(events);
  for (const TraceEvent& e : events) {
    if (e.name == "job") t.job_span_s = e.end - e.start;
  }
  auto counter = [&registry](std::string_view name) {
    return registry.GetCounter(name)->value();
  };
  t.candidates = counter("partition.score.candidates");
  t.batches = counter("partition.score.batches");
  t.cluster_moves = counter("partition.cluster.moves");
  t.neighbor_scans = counter("partition.greedy.neighbor.scans");
  t.state_bytes = job.partitioning.state_bytes;
  t.edges = w.path == JobPath::kReadFile ? job.parsed.num_edges()
                                         : in.num_edges;
  t.skipped_lines = job.skipped_lines;
  t.source_passes = job.source_passes;
  t.source_edges_pulled = job.source_edges_pulled;
  return t;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Resets the peak-RSS high-water mark to the current RSS (Linux: writing
// 5 to /proc/self/clear_refs). Returns false when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// Writes a file's dirty pages to disk, so its write-back does not land in
// the next job's time.
void FlushToDisk(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fsync(fd);
  close(fd);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << FormatJsonDouble(m.value) << " "
              << m.unit << "\n";
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonEscaped(metrics[i].name, &json);
    json += ": {\"value\": " + FormatJsonDouble(metrics[i].value) +
            ", \"unit\": ";
    AppendJsonEscaped(metrics[i].unit, &json);
    json += "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

double PerSecond(double amount, double seconds) {
  return seconds > 0 ? amount / seconds : 0;
}

// The per-layer split of the median traced job: its layer self times plus
// the unattributed time add up to its job span.
std::vector<Metric> LayerMetrics(const Workload& w, const Input& in,
                                 std::vector<TracedJob> traced,
                                 double untraced_s) {
  std::sort(traced.begin(), traced.end(),
            [](const TracedJob& a, const TracedJob& b) {
              return a.seconds < b.seconds;
            });
  const TracedJob& t = traced[(traced.size() - 1) / 2];
  auto self = [&t](const char* name) {
    auto it = t.self.find(name);
    return it == t.self.end() ? 0.0 : it->second;
  };
  std::vector<double> traced_times;
  for (const TracedJob& j : traced) traced_times.push_back(j.seconds);
  const double parse_s = self("io.parse");
  const double pull_s = self("source.pull");
  const double place_s = self("partition.place");
  const double write_s = self("output.write");
  const double mb = 1e6;
  const bool reads_file = w.path == JobPath::kReadFile;
  const double input_bytes = static_cast<double>(in.edge_list_bytes);
  const double bytes_read = static_cast<double>(t.source_passes) * input_bytes;
  const double layers = parse_s + pull_s + place_s + self("metrics.compute") +
                        write_s + self("job");
  std::cout << "traced job " << FormatJsonDouble(t.job_span_s)
            << " s = layer self times + unattributed "
            << FormatJsonDouble(layers) << " s (median of " << traced.size()
            << " traced jobs)\n";
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"io.parse_s", parse_s, "s"},
      {"io.parse_mb_per_s",
       reads_file ? PerSecond(input_bytes / mb, parse_s) : 0, "MB/s"},
      {"io.input_bytes", input_bytes, "B"},
      {"io.edges", reads_file ? count(t.edges) : 0, "count"},
      {"io.skipped_lines", count(t.skipped_lines), "count"},
      {"source.pull_s", pull_s, "s"},
      {"source.pull_mb_per_s", PerSecond(bytes_read / mb, pull_s), "MB/s"},
      {"source.passes", count(t.source_passes), "count"},
      {"source.edges_pulled", count(t.source_edges_pulled), "count"},
      {"source.bytes_read", bytes_read, "B"},
      {"partition.place_s", place_s, "s"},
      {"partition.ns_per_edge", PerSecond(place_s * 1e9, count(t.edges)),
       "ns"},
      {"partition.state_bytes", count(t.state_bytes), "B"},
      {"partition.ns_per_candidate",
       PerSecond(place_s * 1e9, count(t.candidates)), "ns"},
      {"partition.score.candidates", count(t.candidates), "count"},
      {"partition.score.batches", count(t.batches), "count"},
      {"partition.cluster.moves", count(t.cluster_moves), "count"},
      {"partition.greedy.neighbor.scans", count(t.neighbor_scans), "count"},
      {"finalize.master_s", self("finalize.master"), "s"},
      {"metrics.replica_sets_s", self("metrics.replica_sets"), "s"},
      {"metrics.compute_s", self("metrics.compute"), "s"},
      {"output.write_s", write_s, "s"},
      {"output.bytes", count(t.output_bytes), "B"},
      {"output.mb_per_s", PerSecond(count(t.output_bytes) / mb, write_s),
       "MB/s"},
      {"trace.job_s", t.job_span_s, "s"},
      {"trace.unattributed_s", self("job"), "s"},
      {"trace.overhead_frac",
       untraced_s > 0 ? Median(traced_times) / untraced_s - 1 : 0, "frac"},
      {"trace.jobs", count(traced.size()), "count"},
  };
}

int Run(const Options& opt) {
  // A fixed mmap threshold turns off glibc's adaptive one, so every job's
  // large buffers are mapped fresh and unmapped when freed, as in a one-shot
  // tool run, and peak RSS follows live memory rather than allocator history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (opt.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "error: unknown workload '" << opt.workload << "'; one of:";
    for (const Workload& candidate : kWorkloads) {
      std::cerr << " " << candidate.name;
    }
    std::cerr << "\n";
    return 2;
  }
  const PartitionerInfo* info = FindPartitionerInfo(w->algorithm);
  if (info == nullptr) {
    std::cerr << "error: partitioner " << w->algorithm << " not registered\n";
    return 2;
  }
  std::unique_ptr<Partitioner> algo = info->factory();
  PartitionConfig config;
  config.k = w->k;
  config.seed = opt.seed;
  const uint32_t scale = opt.tiny ? kTinyScale : w->scale;
  std::filesystem::create_directories(opt.work_dir);
  const std::string output_path = opt.work_dir + "/" + w->name + ".part";

  // Set-up: generate the input (graph, and the edge-list file for the
  // file-based paths) several times; the last one is kept.
  std::vector<double> setup_times;
  Input input;
  for (int i = 0; i < kSetupReps; ++i) {
    input = Input();
    Timer timer;
    input = MakeInput(*w, scale, opt.seed, opt.work_dir);
    setup_times.push_back(timer.ElapsedSeconds());
  }
  std::cout << "workload " << w->name << ": " << info->name << " k=" << w->k
            << ", " << input.num_vertices << " vertices, "
            << input.num_edges << " edges";
  if (input.edge_list_bytes > 0) {
    std::cout << ", " << input.edge_list_bytes << " bytes of edge list";
  }
  std::cout << "\n";

  if (!input.edge_list_path.empty()) FlushToDisk(input.edge_list_path);
  if (!ResetPeakRss()) {
    std::cout << "note: peak RSS could not be reset; it includes set-up\n";
  }
  std::vector<double> job_peak_rss_mb;

  Checker checker(*w, input, *info, output_path);
  MetricsRegistry export_registry;
  std::vector<double> untraced_times;
  std::vector<TracedJob> traced_jobs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool first_untraced = true;
  const uint64_t min_jobs = opt.trace ? kMinJobsTraced : kMinJobs;
  // Every job starts from the same state: freed heap pages returned, the
  // RSS high-water mark reset, and the previous job's output on disk.
  auto run_job = [&](TraceBuffer* trace) {
    malloc_trim(0);
    ResetPeakRss();
    JobResult job = RunJob(*w, input, *algo, config, output_path, trace);
    job_peak_rss_mb.push_back(PeakRssMb());
    if (w->write_output) FlushToDisk(output_path);
    return job;
  };
  Timer window;
  while (true) {
    std::vector<double> all_times = untraced_times;
    for (const TracedJob& t : traced_jobs) all_times.push_back(t.seconds);
    if (attempted >= min_jobs &&
        window.ElapsedSeconds() + Median(all_times) > opt.seconds) {
      break;
    }
    // Trace mode runs untraced and traced jobs in the order U T T U, so
    // both kinds see the same share of early and late jobs.
    const bool traced = opt.trace && (attempted % 4 == 1 || attempted % 4 == 2);
    ++attempted;
    std::vector<std::string> fails;
    if (!traced) {
      JobResult job = run_job(nullptr);
      fails = checker.Check(job, first_untraced, nullptr);
      first_untraced = false;
      untraced_times.push_back(job.seconds);
    } else {
      MetricsRegistry job_registry;
      TraceBuffer spans;
      const double job_offset_s = window.ElapsedSeconds();
      JobResult job;
      {
        ScopedMetricsRegistry scope(&job_registry);
        job = run_job(&spans);
        fails = checker.Check(job, /*full=*/true, &spans);
      }
      if (spans.dropped() > 0) fails.push_back("trace buffer dropped spans");
      std::vector<TraceEvent> events = spans.Snapshot();
      TracedJob t = SummarizeTracedJob(*w, input, job, events, job_registry);
      t.output_bytes =
          w->write_output ? std::filesystem::file_size(output_path) : 0;
      // Spans of one job share its index in args[0]; exported times are
      // seconds since the first job started.
      export_registry.MergeFrom(job_registry);
      for (TraceEvent& e : events) {
        e.args[0] = attempted;
        e.start += job_offset_s;
        e.end += job_offset_s;
        export_registry.traces().Append(std::move(e));
      }
      traced_jobs.push_back(std::move(t));
    }
    if (!fails.empty()) {
      ++failed;
      for (const std::string& f : fails) {
        std::cout << "FAIL job " << attempted << ": " << f << "\n";
      }
    }
  }

  if (checker.fingerprint()) {
    std::cout << "fingerprint " << Hex(*checker.fingerprint()) << "\n";
  }
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const PartitionMetrics quality =
        checker.metrics().value_or(PartitionMetrics());
    std::cout << "job_s is the median of " << untraced_times.size()
              << " jobs:";
    for (double t : untraced_times) std::cout << " " << t;
    std::cout << "\nsetup_s is the median of " << kSetupReps << " set-ups:";
    for (double t : setup_times) std::cout << " " << t;
    std::cout << "\n";
    metrics = {
        {"job_s", Median(untraced_times), "s"},
        {"setup_s", Median(setup_times), "s"},
        {"peak_rss_mb", Median(job_peak_rss_mb), "MB"},
        {"replication_factor", quality.replication_factor, "x"},
        {"edge_cut_ratio", quality.edge_cut_ratio, "frac"},
        {"success_rate",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "frac"},
    };
  } else {
    metrics = LayerMetrics(*w, input, std::move(traced_jobs),
                           Median(untraced_times));
    ExportOptions export_options;
    export_options.include_traces = true;
    const std::string trace_path =
        opt.work_dir + "/trace-" + w->name + ".json";
    std::ofstream(trace_path) << export_registry.ExportJson(export_options);
    std::cout << "spans written to " << trace_path << "\n";
  }

  // The generated input and the written partitioning are tens of MB.
  std::error_code ignored;
  if (!input.edge_list_path.empty()) {
    std::filesystem::remove(input.edge_list_path, ignored);
  }
  std::filesystem::remove(output_path, ignored);

  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      opt->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--work-dir") {
      opt->work_dir = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt->seconds > 0) ||
          opt->seconds > kMaxSeconds) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--tiny]\n";
    return 2;
  }
  return perfbench::Run(opt);
}

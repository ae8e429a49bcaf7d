// Scoring-path speed: ns/edge of every ScoreCore-backed streaming
// partitioner in both scoring modes — the reference scorer and the fast
// mode (AVX2 kernels, or the batched bit-packed kernels where the CPU
// lacks AVX2 or SGP_FORCE_SCALAR_DISPATCH is set) — across partition
// counts. Both modes are bit-identical (the fingerprint gauges below and
// tests/score_core_test.cc pin that), so the ratio is pure scoring cost:
// per-candidate Contains probes and branchy score loops vs
// word-at-a-time membership and vectorized score+argmax sweeps, and for
// the vertex-greedy family the k-way scan vs the sparse pick. Rows on a
// road graph up to k=512 show that pick's cost staying flat in k.
//
// Also keeps the Section 4.1 memory claim visible: streaming partitioners
// hold only an O(n + k) synopsis (state_KB column), a fraction of what the
// offline multilevel baseline needs for its coarsening hierarchy.
//
// Each cell is timed kReps times and reported as min / median / max
// ns/edge (table columns and wall-clock gauges), so one noisy timing
// cannot stand in for a speedup; fast_x compares medians.
//
// Timing runs execute inside a scoped throwaway registry so repetition
// can never leak wall time into the deterministic JSON section; one
// canonical run per (algo, k, mode) cell then executes in the global
// registry, contributing the decision counters and the partition.score.*
// namespace plus a fingerprint gauge per cell. The deterministic section
// is golden-gated by scripts/check.sh.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "partition/partitioner.h"
#include "partition/score_core.h"

namespace {

using namespace sgp;

// Fixed repetition count (odd, so the median is one run), no adaptive
// iteration.
constexpr int kReps = 5;

uint64_t Fnv1a(uint64_t h, const std::vector<PartitionId>& v) {
  for (PartitionId p : v) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Folded to 32 bits so the fingerprint is exactly representable in the
// gauge's double payload (and therefore byte-stable in the golden JSON).
uint64_t Fingerprint32(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, p.vertex_to_partition);
  h = Fnv1a(h, p.edge_to_partition);
  return (h ^ (h >> 32)) & 0xFFFFFFFFULL;
}

struct Cell {
  // ns/edge over the kReps timing runs.
  double min_ns = 0;
  double median_ns = 0;
  double max_ns = 0;
  uint64_t fingerprint = 0;
  uint64_t state_bytes = 0;
};

Cell RunCell(const Graph& g, const std::string& algo, PartitionId k,
             ScoreMode mode) {
  auto partitioner = CreatePartitioner(algo);
  PartitionConfig cfg;
  cfg.k = k;
  cfg.score_mode = mode;

  Cell cell;
  std::vector<double> ns(kReps);
  {
    // Throwaway registry: timing repetitions must not touch the global
    // (golden-gated) counters.
    MetricsRegistry scratch;
    ScopedMetricsRegistry scoped(&scratch);
    for (double& t : ns) {
      Timer timer;
      Partitioning p = partitioner->Run(g, cfg);
      t = static_cast<double>(timer.ElapsedNanos()) /
          static_cast<double>(g.num_edges());
    }
  }
  std::sort(ns.begin(), ns.end());
  cell.min_ns = ns.front();
  cell.median_ns = ns[kReps / 2];
  cell.max_ns = ns.back();
  // Canonical run: decision counters land in the global registry.
  Partitioning p = partitioner->Run(g, cfg);
  cell.fingerprint = Fingerprint32(p);
  cell.state_bytes = p.state_bytes;
  return cell;
}

}  // namespace

int main() {
  const uint32_t scale = bench::ScaleFromEnv();
  bench::PrintBanner(
      "Partitioner scoring speed",
      "ns/edge of the reference scorer vs the fast ScoreCore kernels "
      "(bit-identical assignments)",
      scale);
  std::cout << "fast-mode kernel tier: "
            << score::KernelTierName(score::ActiveKernelTier()) << "\n";
  const Graph twitter(MakeDataset("twitter", scale));
  // The road graph at 16× the vertices carries about as many edges as the
  // twitter graph (average degree 2.5 vs ≈ 30), in the sparse regime
  // where the vertex-greedy family's cost must not grow with k.
  const Graph road(MakeDataset("usaroad", scale + 4));

  constexpr ScoreMode kModes[2] = {ScoreMode::kReference, ScoreMode::kFast};
  TablePrinter table({"Graph", "Algo", "k", "ref min", "ref median",
                      "ref max", "fast min", "fast median", "fast max",
                      "fast_x", "state_KB"});
  bool fingerprints_agree = true;
  // One row: both modes of (graph, algo, k). `key` prefixes every metric
  // of the row.
  auto run_row = [&](const Graph& g, const std::string& graph_name,
                     const std::string& key, const std::string& algo,
                     PartitionId k) {
    Cell cells[2];
    for (int m = 0; m < 2; ++m) {
      cells[m] = RunCell(g, algo, k, kModes[m]);
      const std::string prefix =
          key + "." + std::string(ScoreModeName(kModes[m]));
      MetricsRegistry::Global()
          .GetGauge(prefix + ".fingerprint")
          ->Set(static_cast<double>(cells[m].fingerprint));
      const std::pair<const char*, double> spread[] = {
          {"min", cells[m].min_ns},
          {"median", cells[m].median_ns},
          {"max", cells[m].max_ns}};
      for (const auto& [stat, value] : spread) {
        MetricsRegistry::Global()
            .GetGauge(prefix + ".ns_per_edge." + stat + ".wall",
                      MetricOptions::WallClock())
            ->Set(value);
      }
    }
    // fast_x: reference → fast gain, median over median.
    const double speedup = cells[1].median_ns == 0
                               ? 0
                               : cells[0].median_ns / cells[1].median_ns;
    MetricsRegistry::Global()
        .GetGauge(key + ".speedup.wall", MetricOptions::WallClock())
        ->Set(speedup);
    if (cells[1].fingerprint != cells[0].fingerprint) {
      fingerprints_agree = false;
      std::cerr << "FINGERPRINT MISMATCH: " << graph_name << " " << algo
                << " k=" << k << " reference=" << cells[0].fingerprint
                << " fast=" << cells[1].fingerprint << "\n";
    }
    table.AddRow({graph_name, algo, std::to_string(k),
                  FormatDouble(cells[0].min_ns, 2),
                  FormatDouble(cells[0].median_ns, 2),
                  FormatDouble(cells[0].max_ns, 2),
                  FormatDouble(cells[1].min_ns, 2),
                  FormatDouble(cells[1].median_ns, 2),
                  FormatDouble(cells[1].max_ns, 2),
                  FormatDouble(speedup, 2) + "x",
                  FormatDouble(
                      static_cast<double>(cells[1].state_bytes) / 1024.0,
                      1)});
  };

  const std::vector<std::string> algos = {"LDG",  "FNL",  "HDRF", "PGG",
                                          "HG",   "ESG",  "RLDG", "RFNL"};
  for (const std::string& algo : algos) {
    for (PartitionId k : {8u, 32u, 128u}) {
      run_row(twitter, "twitter", "partitioner_speed." + algo + ".k" +
                                      std::to_string(k),
              algo, k);
    }
  }
  for (const std::string algo : {"FNL", "LDG"}) {
    for (PartitionId k : {8u, 128u, 512u}) {
      run_row(road, "usaroad",
              "partitioner_speed.usaroad." + algo + ".k" + std::to_string(k),
              algo, k);
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: the fast mode pulls ahead as k grows — at\n"
         "k=128 a candidate sweep reads two cache lines of membership words\n"
         "instead of doing 128 probe round-trips, so HDRF lands >=3x in\n"
         "fast_x (median over median; a wall-clock gauge, not\n"
         "hard-asserted — read it against each side's min-max spread).\n"
         "On usaroad the fast LDG/FNL rows stay flat from k=8 to k=512\n"
         "(sparse pick: touched partitions plus a log k tree), while the\n"
         "reference rows grow with k.\n"
         "Both modes place every edge and vertex identically: each cell's\n"
         "fingerprint gauge pins the assignment bytes in the golden.\n";
  bench::WriteBenchJson("partitioner_speed", scale);
  return fingerprints_agree ? 0 : 1;
}

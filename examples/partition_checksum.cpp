// Deterministic partitioning fingerprints: one FNV-1a line per
// (algorithm, dataset, k, seed, order, capacity profile) cell, plus the
// parallel-ingest driver at several worker counts. Two builds of this
// repository must print byte-identical output — scripts/check.sh diffs a
// portable build against a -march=native one (and the PR workflow diffs
// refactors against the previous HEAD) to prove every scoring change is
// behavior-preserving down to the last tie-break. --score-mode switches
// every run onto the reference or the fast kernels (default: the
// PartitionConfig default); the printed grid must be byte-identical
// across both (check.sh diffs them too).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "graph/datasets.h"
#include "partition/edgecut/parallel_streaming.h"
#include "partition/partitioner.h"
#include "partition/partitioning.h"

namespace {

using namespace sgp;

uint64_t Fnv1a(uint64_t h, const std::vector<PartitionId>& v) {
  for (PartitionId p : v) {
    h ^= static_cast<uint64_t>(p) + 1;  // +1 keeps kInvalidPartition distinct
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fingerprint(const Partitioning& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, p.vertex_to_partition);
  h = Fnv1a(h, p.edge_to_partition);
  return h;
}

const char* OrderName(StreamOrder order) {
  switch (order) {
    case StreamOrder::kNatural: return "natural";
    case StreamOrder::kRandom: return "random";
    case StreamOrder::kBfs: return "bfs";
    case StreamOrder::kDfs: return "dfs";
  }
  return "?";
}

// Capacity profile of the "hetero" cells: weights 1, 1.5, 2, 2.5 repeating.
std::vector<double> HeteroWeights(PartitionId k) {
  std::vector<double> weights(k);
  for (PartitionId i = 0; i < k; ++i) weights[i] = 1.0 + 0.5 * (i % 4);
  return weights;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const uint32_t scale =
      static_cast<uint32_t>(flags.TakeUint64("--scale").value_or(10));
  ScoreMode score_mode = PartitionConfig().score_mode;
  if (auto mode = flags.TakeString("--score-mode")) {
    if (!ParseScoreMode(*mode, &score_mode)) {
      std::fprintf(stderr,
                   "error: unknown score mode '%s'; valid values: "
                   "reference, fast\n",
                   mode->c_str());
      return 1;
    }
  }
  flags.TakePositional();
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 1;
  }

  const std::vector<std::string> datasets = {"twitter", "usaroad"};
  const std::vector<PartitionId> ks = {3, 8, 32, 128};
  const std::vector<uint64_t> seeds = {1, 42};
  const std::vector<StreamOrder> orders = {StreamOrder::kRandom,
                                           StreamOrder::kBfs};

  // One grid cell: every (k, seed, order, capacity profile) combination of
  // `algo` under `tweak`, printed as "<dataset> <label> k=.. seed=.. ..".
  auto print_grid = [&](const Graph& g, const std::string& dataset,
                        const std::string& label, const std::string& algo,
                        auto&& tweak) {
    for (PartitionId k : ks) {
      for (uint64_t seed : seeds) {
        for (StreamOrder order : orders) {
          for (bool hetero : {false, true}) {
            PartitionConfig cfg;
            cfg.k = k;
            cfg.seed = seed;
            cfg.order = order;
            cfg.score_mode = score_mode;
            if (hetero) cfg.capacity_weights = HeteroWeights(k);
            tweak(cfg);
            Partitioning p = CreatePartitioner(algo)->Run(g, cfg);
            std::printf("%s %s k=%u seed=%" PRIu64 " %s %s %016" PRIx64 "\n",
                        dataset.c_str(), label.c_str(), k, seed,
                        OrderName(order), hetero ? "hetero" : "plain",
                        Fingerprint(p));
          }
        }
      }
    }
  };
  // The parallel drivers share the sharded scoring path; one worker is
  // the sequential algorithm, three exercises the stale delta views.
  auto print_parallel = [&](const Graph& g, const std::string& dataset,
                            const std::string& label, ParallelAlgo algo,
                            auto&& tweak) {
    for (uint32_t workers : {1u, 3u}) {
      for (PartitionId k : {8u, 128u}) {
        PartitionConfig cfg;
        cfg.k = k;
        cfg.seed = 42;
        cfg.score_mode = score_mode;
        tweak(cfg);
        ParallelStreamOptions options;
        options.num_streams = workers;
        options.sync_interval = 64;
        ParallelStreamResult r = RunParallelStreaming(g, cfg, options, algo);
        std::printf("%s %s w=%u k=%u %016" PRIx64 "\n", dataset.c_str(),
                    label.c_str(), workers, k, Fingerprint(r.partitioning));
      }
    }
  };
  auto defaults = [](PartitionConfig&) {};

  for (const std::string& dataset : datasets) {
    const Graph g = MakeDataset(dataset, scale);
    for (const std::string& algo : PartitionerNames()) {
      print_grid(g, dataset, algo, algo, defaults);
    }
    for (ParallelAlgo algo : {ParallelAlgo::kLdg, ParallelAlgo::kFennel,
                              ParallelAlgo::kHdrf, ParallelAlgo::kPgg}) {
      print_parallel(g, dataset,
                     "PAR-" + std::string(ParallelAlgoName(algo)), algo,
                     defaults);
    }
  }

  // Vertex-greedy variants outside the Table 2 roster: restreaming (one
  // pass per load removal and re-placement, α annealed across passes),
  // pow-form FENNEL (γ ≠ 1.5), a tight balance cap that drives
  // restreaming into the all-at-capacity fallback, and the sharded
  // drivers on heterogeneous capacities and the pow form.
  auto gamma2 = [](PartitionConfig& cfg) { cfg.fennel_gamma = 2.0; };
  auto annealed_gamma2 = [](PartitionConfig& cfg) {
    cfg.fennel_gamma = 2.0;
    cfg.restream_alpha_growth = 1.5;
  };
  auto tight = [](PartitionConfig& cfg) { cfg.balance_slack = 1.0; };
  auto hetero = [](PartitionConfig& cfg) {
    cfg.capacity_weights = HeteroWeights(cfg.k);
  };
  for (const std::string& dataset : datasets) {
    const Graph g = MakeDataset(dataset, scale);
    print_grid(g, dataset, "RLDG", "RLDG", defaults);
    print_grid(g, dataset, "RFNL", "RFNL", defaults);
    print_grid(g, dataset, "FNL-g2", "FNL", gamma2);
    print_grid(g, dataset, "RFNL-g2-anneal", "RFNL", annealed_gamma2);
    print_grid(g, dataset, "RLDG-slack1", "RLDG", tight);
    print_parallel(g, dataset, "PAR-FNL-g2", ParallelAlgo::kFennel, gamma2);
    print_parallel(g, dataset, "PAR-LDG-hetero", ParallelAlgo::kLdg, hetero);
    print_parallel(g, dataset, "PAR-FNL-hetero", ParallelAlgo::kFennel,
                   hetero);
  }
  return 0;
}

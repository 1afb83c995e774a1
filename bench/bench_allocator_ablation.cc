// E20: allocator quality ablation (Section 3.3's "close to optimal" claim)
// and cost-model ablation (what produces the super-linear read-only
// speedup).
//
//  (a) greedy vs memetic vs exact MILP on small instances: scale and
//      stored bytes;
//  (b) the cache-penalty term switched off: specialized allocations lose
//      their super-linear edge over full replication.
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "alloc/optimal.h"
#include "bench_util.h"
#include "common/stats.h"
#include "workloads/journal_synth.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void QualityAblation() {
  PrintHeader("greedy vs memetic vs optimal (scale | stored-frac)",
              {"instance", "greedy", "memetic", "optimal"}, 22);
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    workloads::RandomWorkloadOptions options;
    options.num_tables = 4;
    options.num_read_templates = 5;
    options.num_update_templates = 2;
    const auto workload = workloads::MakeRandomWorkload(seed, options);
    Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
    Classification cls =
        ValueOrDie(classifier.Classify(workload.journal), "classify");
    const auto backends = HomogeneousBackends(3);
    const double total_bytes = cls.catalog.TotalBytes();

    auto report = [&](Allocator* a) -> std::string {
      auto alloc = a->Allocate(cls, backends);
      if (!alloc.ok()) return "n/a";
      double stored = 0.0;
      for (size_t b = 0; b < 3; ++b) {
        stored += alloc->BackendBytes(b, cls.catalog);
      }
      return Fmt(Scale(alloc.value(), backends), 3) + " | " +
             Fmt(stored / total_bytes, 2);
    };
    GreedyAllocator greedy;
    MemeticOptions mopts;
    mopts.iterations = 40;
    mopts.seed = seed;
    MemeticAllocator memetic(mopts);
    OptimalOptions oopts;
    oopts.milp.max_nodes = 50000;
    OptimalAllocator optimal(oopts);
    PrintRow({"rand-" + std::to_string(seed), report(&greedy),
              report(&memetic), report(&optimal)},
             22);
  }
  std::printf(
      "paper claim: the heuristic is very close to the optimum (0.03 "
      "difference in replication degree at 7 backends).\n");
}

/// Algorithm 2 parameter sweep: how fast the memetic search converges on
/// the TPC-App instance, starting from the greedy seed.
void MemeticConvergence() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = ValueOrDie(classifier.Classify(journal), "classify");
  const auto backends = HomogeneousBackends(10);
  GreedyAllocator greedy;
  Allocation seed = ValueOrDie(greedy.Allocate(cls, backends), "seed");

  PrintHeader("memetic convergence (TPC-App, 10 backends)",
              {"iterations", "scale", "model speedup"}, 16);
  PrintRow({"0 (greedy)", Fmt(Scale(seed, backends), 3),
            Fmt(Speedup(seed, backends), 2)},
           16);
  for (size_t iterations : {5, 20, 60, 120}) {
    MemeticOptions opts;
    opts.iterations = iterations;
    opts.population_size = 12;
    opts.seed = 9;
    MemeticAllocator memetic(opts);
    Allocation improved =
        ValueOrDie(memetic.Improve(cls, backends, seed), "improve");
    PrintRow({std::to_string(iterations), Fmt(Scale(improved, backends), 3),
              Fmt(Speedup(improved, backends), 2)},
             16);
  }
  std::printf(
      "shape: most of the improvement lands in the first tens of "
      "generations; the paper runs the evolutionary stage for a fixed "
      "iteration budget for deterministic runtimes.\n");
}

/// Island-model ablation: how subpopulation count and migration shape the
/// search result at a fixed evaluation budget, and thread-count parity
/// (the determinism contract: same {seed, num_islands} => same solution).
void IslandAblation() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = ValueOrDie(classifier.Classify(journal), "classify");
  const auto backends = HomogeneousBackends(10);
  GreedyAllocator greedy;
  Allocation seed = ValueOrDie(greedy.Allocate(cls, backends), "seed");
  const double total_bytes = cls.catalog.TotalBytes();

  PrintHeader("island ablation (TPC-App, 10 backends, fixed budget)",
              {"islands", "migration", "scale", "stored-frac", "evals"}, 14);
  for (size_t islands : {1, 2, 4, 8}) {
    for (size_t interval : {size_t{0}, size_t{10}}) {
      if (islands == 1 && interval != 0) continue;  // No one to migrate to.
      SearchProgress progress;
      MemeticOptions opts;
      opts.population_size = 24;  // Total budget, split over the islands.
      opts.iterations = 60;
      opts.migration_interval = interval;
      opts.num_islands = islands;
      opts.seed = 9;
      opts.progress = &progress;
      MemeticAllocator memetic(opts);
      Allocation improved =
          ValueOrDie(memetic.Improve(cls, backends, seed), "improve");
      double stored = 0.0;
      for (size_t b = 0; b < backends.size(); ++b) {
        stored += improved.BackendBytes(b, cls.catalog);
      }
      PrintRow({std::to_string(islands),
                interval == 0 ? "off" : std::to_string(interval),
                Fmt(Scale(improved, backends), 3), Fmt(stored / total_bytes, 2),
                std::to_string(progress.evaluations.load())},
               14);
    }
  }

  // Thread parity: same {seed, num_islands} at 1 vs 4 threads.
  MemeticOptions opts;
  opts.population_size = 24;
  opts.iterations = 30;
  opts.num_islands = 4;
  opts.migration_interval = 10;
  opts.seed = 9;
  opts.threads = 1;
  Allocation serial = ValueOrDie(
      MemeticAllocator(opts).Improve(cls, backends, seed), "serial");
  opts.threads = 4;
  Allocation parallel = ValueOrDie(
      MemeticAllocator(opts).Improve(cls, backends, seed), "parallel");
  std::printf(
      "thread parity: scale(1 thread)=%s scale(4 threads)=%s -- identical "
      "by the island determinism contract.\n",
      Fmt(Scale(serial, backends), 6).c_str(),
      Fmt(Scale(parallel, backends), 6).c_str());
}

void CachePenaltyAblation() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  GreedyAllocator greedy;
  FullReplicationAllocator full;

  PrintHeader("cache-penalty ablation (TPC-H, 8 backends, q/s)",
              {"cost model", "full-repl", "column", "column/full"}, 16);
  for (bool cache_effects : {true, false}) {
    engine::CostModelParams params = TpchCostParams();
    if (!cache_effects) params.memory_bytes = 1e15;  // Everything cached.
    Layout pf = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kTable}, full,
                    HomogeneousBackends(8)),
        "full");
    Layout pc = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                    HomogeneousBackends(8)),
        "column");
    ThroughputStats tf = ValueOrDie(SimulateSeeds(pf, 1500, 3, params), "f");
    ThroughputStats tc = ValueOrDie(SimulateSeeds(pc, 1500, 3, params), "c");
    PrintRow({cache_effects ? "with cache" : "no cache", Fmt(tf.mean),
              Fmt(tc.mean), Fmt(tc.mean / tf.mean)},
             16);
  }
  std::printf(
      "design note: the cache-penalty term is what reproduces the paper's "
      "super-linear specialized-backend speedups; without it the column "
      "advantage shrinks to the scan-width effect alone.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E20: allocator quality + cost model ablations\n");
  qcap::bench::QualityAblation();
  qcap::bench::MemeticConvergence();
  qcap::bench::IslandAblation();
  qcap::bench::CachePenaltyAblation();
  return 0;
}

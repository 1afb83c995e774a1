// E21 / Section 5 robustness: how gracefully an allocation absorbs
// workload drift, and what zero-weight headroom replicas buy.
//
// Paper anchor: in the Figure 2 four-backend allocation, growing class C
// from 25% to 27% drops the achievable speedup from 4 to 3.7 (its backend
// is exclusive); replicated/co-allocated classes leave slack for shifting.
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/robustness.h"
#include "bench_util.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

Classification Figure2() {
  Classification cls;
  CheckOk(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).status(), "A");
  CheckOk(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).status(), "B");
  CheckOk(cls.catalog.Add("C", "C", FragmentKind::kTable, 1.0).status(), "C");
  cls.reads = {
      QueryClass{{0}, 0.30, 1.0, false, "C1", {}},
      QueryClass{{1}, 0.25, 1.0, false, "C2", {}},
      QueryClass{{2}, 0.25, 1.0, false, "C3", {}},
      QueryClass{{0, 1}, 0.20, 1.0, false, "C4", {}},
  };
  return cls;
}

void PaperExample() {
  const Classification cls = Figure2();
  const auto backends = HomogeneousBackends(4);
  GreedyAllocator greedy;
  Allocation base = ValueOrDie(greedy.Allocate(cls, backends), "allocate");
  RobustnessOptions options;
  options.required_headroom = 0.10;
  Allocation robust =
      ValueOrDie(AddRobustnessHeadroom(cls, base, backends, options),
                 "headroom");

  PrintHeader("Figure 2 example: class C3 weight sweep (speedup)",
              {"C3 weight", "rigid", "shifted", "with headroom"}, 15);
  for (double w : {0.25, 0.26, 0.27, 0.28, 0.30}) {
    const double rigid = ValueOrDie(
        PerturbedSpeedup(cls, base, backends, 2, w, false), "rigid");
    const double shifted = ValueOrDie(
        PerturbedSpeedup(cls, base, backends, 2, w, true), "shifted");
    const double headroom = ValueOrDie(
        PerturbedSpeedup(cls, robust, backends, 2, w, true), "headroom");
    PrintRow({Fmt(w * 100, 0) + "%", Fmt(rigid), Fmt(shifted), Fmt(headroom)},
             15);
  }
  std::printf(
      "paper anchor: 27%% -> 3.7 without headroom. extra storage for the "
      "robust layout: %.2f -> %.2f x database size\n",
      DegreeOfReplication(base, cls.catalog),
      DegreeOfReplication(robust, cls.catalog));
}

void TpchDrift() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  GreedyAllocator greedy;
  Layout p = ValueOrDie(
      BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                  HomogeneousBackends(8)),
      "pipeline");
  PrintHeader(
      "TPC-H column-based on 8 backends: model speedup after +20% drift",
      {"class", "weight", "rigid", "shifted"}, 15);
  const double base = p.model_speedup;
  const Classification& cls = p.classification;
  for (size_t r = 0; r < std::min<size_t>(8, cls.reads.size()); ++r) {
    const double w = cls.reads[r].weight * 1.2;
    const double rigid = ValueOrDie(
        PerturbedSpeedup(cls, p.allocation, p.backends, r, w, false), "rigid");
    const double shifted = ValueOrDie(
        PerturbedSpeedup(cls, p.allocation, p.backends, r, w, true), "shifted");
    PrintRow({cls.reads[r].label, FormatPercent(cls.reads[r].weight, 1),
              Fmt(rigid), Fmt(shifted)},
             15);
  }
  std::printf(
      "baseline speedup %.2f; shifting between replicas recovers most of "
      "each class's drift, bounded by the extra total work itself.\n",
      base);
}

void TpchLatencyTails() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  GreedyAllocator greedy;
  Layout p = ValueOrDie(
      BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                  HomogeneousBackends(8)),
      "pipeline");
  // Each load level is a parallel replication sweep (seeds 7..10); the
  // table reports per-replication means, which are thread-count invariant.
  constexpr size_t kReplications = 4;
  PrintHeader(
      "TPC-H column-based on 8 backends: simulated latency distribution "
      "(mean of " + std::to_string(kReplications) + " replications)",
      {"load q/s", "avg ms", "p50 ms", "p95 ms", "p99 ms", "max ms"}, 12);
  SimulationConfig config;
  config.cost_params = TpchCostParams();
  config.seed = 7;
  config.servers_per_backend = 4;
  auto sim = ValueOrDie(
      ClusterSimulator::Create(p.classification, p.allocation, p.backends,
                               config),
      "simulator");
  for (double rate : {4.0, 8.0, 16.0}) {
    SweepOptions sweep;
    sweep.repeat = kReplications;
    sweep.threads = ThreadPool::DefaultThreads();
    auto runs =
        ValueOrDie(sim.RunOpenSweep(60.0, rate, sweep), "open-loop sweep");
    double avg = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
    for (const SimStats& stats : runs) {
      avg += stats.avg_response_seconds;
      p50 += stats.p50_response_seconds;
      p95 += stats.p95_response_seconds;
      p99 += stats.p99_response_seconds;
      max += stats.max_response_seconds;
    }
    const double n = static_cast<double>(runs.size());
    PrintRow({Fmt(rate, 0), Fmt(avg / n * 1e3, 2), Fmt(p50 / n * 1e3, 2),
              Fmt(p95 / n * 1e3, 2), Fmt(p99 / n * 1e3, 2),
              Fmt(max / n * 1e3, 2)},
             12);
  }
  std::printf(
      "queueing widens the gap between median and tail as the offered load "
      "approaches saturation.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E21: robustness to workload change (Section 5)\n");
  qcap::bench::PaperExample();
  qcap::bench::TpchDrift();
  qcap::bench::TpchLatencyTails();
  return 0;
}

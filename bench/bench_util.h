// Shared plumbing for the figure/table benches: simulations of a built
// Layout (alloc/layout.h), seed-averaged statistics, and aligned table
// printing. Each bench binary prints the series of one paper figure or
// table (gnuplot-ready columns), followed by a paper-vs-measured note.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "alloc/layout.h"
#include "cluster/simulator.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "workload/classifier.h"

namespace qcap::bench {

/// Runs a closed-loop simulation of \p p.
inline Result<SimStats> Simulate(const Layout& p, uint64_t requests,
                                 uint64_t seed,
                                 const engine::CostModelParams& params,
                                 double rowa_fanout_overhead = 0.0) {
  SimulationConfig config;
  config.cost_params = params;
  config.seed = seed;
  config.servers_per_backend = 4;
  config.rowa_fanout_overhead = rowa_fanout_overhead;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(p.classification, p.allocation, p.backends,
                               config));
  return sim.RunClosed(requests, 4 * p.backends.size());
}

/// Mean/min/max of simulated throughput over \p seeds runs.
struct ThroughputStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Replications run as one RunClosedSweep fan (seeds 1..seeds) over the
/// default thread count, or \p pool when given. Sweep results land in
/// submission order and the aggregation below walks them in that order, so
/// the numbers are bit-identical to the old serial seed loop.
inline Result<ThroughputStats> SimulateSeeds(
    const Layout& p, uint64_t requests, size_t seeds,
    const engine::CostModelParams& params,
    double rowa_fanout_overhead = 0.0, ThreadPool* pool = nullptr) {
  SimulationConfig config;
  config.cost_params = params;
  config.seed = 1;
  config.servers_per_backend = 4;
  config.rowa_fanout_overhead = rowa_fanout_overhead;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(p.classification, p.allocation, p.backends,
                               config));
  SweepOptions sweep;
  sweep.repeat = seeds;
  sweep.threads = ThreadPool::DefaultThreads();
  sweep.pool = pool;
  QCAP_ASSIGN_OR_RETURN(
      std::vector<SimStats> runs,
      sim.RunClosedSweep(requests, 4 * p.backends.size(), sweep));
  ThroughputStats out;
  out.min = 1e300;
  out.max = -1e300;
  for (const SimStats& stats : runs) {
    out.mean += stats.throughput;
    out.min = std::min(out.min, stats.throughput);
    out.max = std::max(out.max, stats.throughput);
  }
  out.mean /= static_cast<double>(seeds);
  return out;
}

/// Prints one aligned row of cells.
inline void PrintRow(const std::vector<std::string>& cells, size_t width = 14) {
  std::string line;
  for (const auto& cell : cells) line += PadLeft(cell, width);
  std::printf("%s\n", line.c_str());
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns,
                        size_t width = 14) {
  std::printf("\n=== %s ===\n", title.c_str());
  PrintRow(columns, width);
  std::printf("%s\n", std::string(width * columns.size(), '-').c_str());
}

inline std::string Fmt(double v, int precision = 2) {
  return FormatDouble(v, precision);
}

/// Cost-model parameters used by the TPC-H benches: SF 1 is ~1 GB and the
/// per-backend cache is smaller, so full replicas spill while specialized
/// backends fit (the paper's super-linear read-only effect).
inline engine::CostModelParams TpchCostParams() {
  engine::CostModelParams params;
  params.memory_bytes = 0.6 * 1024 * 1024 * 1024;
  // Row-store backends only partially benefit from narrower scans (join
  // and tuple-at-a-time overheads dominate): a 0.45 io share keeps the
  // column-allocation advantage in the paper's observed range.
  params.io_fraction = 0.45;
  params.max_cache_penalty = 3.0;
  return params;
}

/// Cost-model parameters for the TPC-App benches (OLTP: less scan-bound,
/// 280 MB data set fits in memory at EB=300).
inline engine::CostModelParams TpcAppCostParams() {
  engine::CostModelParams params;
  params.memory_bytes = 2.0 * 1024 * 1024 * 1024;
  params.io_fraction = 0.3;
  params.max_cache_penalty = 3.0;
  return params;
}

/// Fails hard with a message; benches have no meaningful recovery path.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

}  // namespace qcap::bench

// qcap_tool: run the allocation pipeline from files, no C++ required.
//
//   qcap_tool <schema-file> <journal-file> [options]
//     --backends N         cluster size (default 4)
//     --granularity G      table | column | hybrid | horizontal (default table)
//     --partitions P       horizontal partition count (default 4)
//     --allocator A        greedy | memetic | full | ksafe1 (default memetic)
//     --threads T          memetic search threads, at most one per island;
//                          0 = all cores (default 1)
//     --islands N          memetic island count (default 4)
//     --migration M        generations between island migrations (default 15)
//     --json               emit JSON instead of the text report
//     --simulate D:R       after allocating, run an open-loop simulation of
//                          D seconds at R requests/second and print its stats
//     --repeat N           run N independent simulation replications (seeds
//                          1..N) fanned out over --threads workers and print
//                          per-replication stats plus a mean/min/max summary
//     --fault-plan SPEC    fault schedule for --simulate, e.g.
//                          "crash:10:2,recover:25:2,degrade:5:0:4"
//
// The memetic allocator is deterministic for a fixed (--islands, seed)
// regardless of --threads, so --threads only changes the wall-clock. The
// same holds for --repeat: replication i always runs at seed 1 + i, so the
// sweep's stats are bit-identical at any thread count.
//
// Schema files use the engine/schema_io.h format; journal files use the
// workload/journal_io.h format (SaveJournal). Example inputs can be
// produced with examples/sql_workload.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "qcap.h"

using namespace qcap;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "qcap_tool: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: qcap_tool <schema-file> <journal-file> "
                 "[--backends N] [--granularity table|column|hybrid|"
                 "horizontal] [--partitions P] "
                 "[--allocator greedy|memetic|full|ksafe1] "
                 "[--threads T] [--islands N] [--migration M] [--json] "
                 "[--simulate D:R] [--repeat N] [--fault-plan SPEC]\n");
    return 2;
  }
  const std::string schema_path = argv[1];
  const std::string journal_path = argv[2];
  size_t backends_n = 4;
  ClassifierOptions copts;
  std::string allocator_name = "memetic";
  MemeticOptions mopts;
  bool emit_json = false;
  bool simulate = false;
  double sim_duration = 0.0;
  double sim_rate = 0.0;
  size_t sim_repeat = 1;
  FaultPlan fault_plan;
  bool have_fault_plan = false;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_uint = [&]() -> std::optional<uint64_t> {
      const char* v = next();
      return v ? ParseUint(v) : std::nullopt;
    };
    if (arg == "--backends") {
      const std::optional<uint64_t> n = next_uint();
      if (!n || *n == 0) return Fail("--backends needs a count");
      backends_n = *n;
    } else if (arg == "--granularity") {
      const char* v = next();
      if (!v) return Fail("--granularity needs a value");
      if (std::strcmp(v, "table") == 0) {
        copts.granularity = Granularity::kTable;
      } else if (std::strcmp(v, "column") == 0) {
        copts.granularity = Granularity::kColumn;
      } else if (std::strcmp(v, "hybrid") == 0) {
        copts.granularity = Granularity::kHybrid;
      } else if (std::strcmp(v, "horizontal") == 0) {
        copts.granularity = Granularity::kHorizontal;
      } else {
        return Fail(std::string("unknown granularity '") + v + "'");
      }
    } else if (arg == "--partitions") {
      const std::optional<uint64_t> n = next_uint();
      if (!n || *n == 0 || *n > uint64_t{INT_MAX}) {
        return Fail("--partitions needs a count");
      }
      copts.horizontal_partitions = static_cast<int>(*n);
    } else if (arg == "--allocator") {
      const char* v = next();
      if (!v) return Fail("--allocator needs a value");
      allocator_name = v;
    } else if (arg == "--threads") {
      const std::optional<uint64_t> n = next_uint();  // 0 = all cores
      if (!n) return Fail("--threads needs a count");
      mopts.threads = *n;
    } else if (arg == "--islands") {
      const std::optional<uint64_t> n = next_uint();
      if (!n || *n == 0) return Fail("--islands needs a count");
      mopts.num_islands = *n;
    } else if (arg == "--migration") {
      const std::optional<uint64_t> n = next_uint();
      if (!n) return Fail("--migration needs a count");
      mopts.migration_interval = *n;
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--simulate") {
      const char* v = next();
      const std::vector<std::string> parts = Split(v ? v : "", ':');
      const std::optional<double> duration =
          parts.size() == 2 ? ParseFiniteDouble(parts[0]) : std::nullopt;
      const std::optional<double> rate =
          parts.size() == 2 ? ParseFiniteDouble(parts[1]) : std::nullopt;
      if (!duration || !rate || *duration <= 0.0 || *rate <= 0.0) {
        return Fail("--simulate needs <duration>:<rate> with both > 0");
      }
      sim_duration = *duration;
      sim_rate = *rate;
      simulate = true;
    } else if (arg == "--repeat") {
      const std::optional<uint64_t> n = next_uint();
      if (!n || *n == 0) return Fail("--repeat needs a count");
      sim_repeat = *n;
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (!v) return Fail("--fault-plan needs a spec");
      auto plan = ParseFaultPlan(v);
      if (!plan.ok()) return Fail(plan.status().ToString());
      fault_plan = std::move(plan).value();
      have_fault_plan = true;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  if (have_fault_plan && !simulate) {
    return Fail("--fault-plan requires --simulate <duration>:<rate>");
  }
  if (sim_repeat > 1 && !simulate) {
    return Fail("--repeat requires --simulate <duration>:<rate>");
  }

  auto catalog = engine::LoadCatalog(schema_path);
  if (!catalog.ok()) return Fail(catalog.status().ToString());
  auto journal = LoadJournal(journal_path);
  if (!journal.ok()) return Fail(journal.status().ToString());

  std::unique_ptr<Allocator> allocator;
  if (allocator_name == "greedy") {
    allocator = std::make_unique<GreedyAllocator>();
  } else if (allocator_name == "memetic") {
    allocator = std::make_unique<MemeticAllocator>(mopts);
  } else if (allocator_name == "full") {
    allocator = std::make_unique<FullReplicationAllocator>();
  } else if (allocator_name == "ksafe1") {
    allocator = std::make_unique<KSafeGreedyAllocator>(KSafetyOptions{1});
  } else {
    return Fail("unknown allocator '" + allocator_name + "'");
  }

  auto layout = BuildLayout(catalog.value(), journal.value(), copts,
                            *allocator, HomogeneousBackends(backends_n));
  if (!layout.ok()) return Fail(layout.status().ToString());
  const Classification& cls = layout->classification;
  const Allocation& alloc = layout->allocation;
  const std::vector<BackendSpec>& backends = layout->backends;

  if (emit_json) {
    std::printf("{\"classification\":%s,\"allocation\":%s}\n",
                ClassificationToJson(cls).c_str(),
                AllocationToJson(cls, alloc, backends).c_str());
  } else {
    std::printf("%s\n%s", RenderClassificationReport(cls).c_str(),
                RenderAllocationReport(cls, alloc, backends).c_str());
  }

  if (simulate) {
    SimulationConfig config;
    config.fault_plan = fault_plan;
    // Strict fault-plan validation happens inside the simulator run.
    auto sim = ClusterSimulator::Create(cls, alloc, backends, config);
    if (!sim.ok()) return Fail(sim.status().ToString());
    if (sim_repeat > 1) {
      SweepOptions sweep;
      sweep.repeat = sim_repeat;
      sweep.threads =
          mopts.threads > 0 ? mopts.threads : ThreadPool::DefaultThreads();
      auto runs = sim->RunOpenSweep(sim_duration, sim_rate, sweep);
      if (!runs.ok()) return Fail(runs.status().ToString());
      double thr_sum = 0.0;
      double thr_min = 0.0;
      double thr_max = 0.0;
      double avg_sum = 0.0;
      for (size_t i = 0; i < runs->size(); ++i) {
        const SimStats& st = (*runs)[i];
        std::printf("replication %zu (seed %llu): %s\n", i,
                    static_cast<unsigned long long>(config.seed + i),
                    st.ToString().c_str());
        thr_sum += st.throughput;
        avg_sum += st.avg_response_seconds;
        thr_min = i == 0 ? st.throughput : std::min(thr_min, st.throughput);
        thr_max = i == 0 ? st.throughput : std::max(thr_max, st.throughput);
      }
      const double n = static_cast<double>(runs->size());
      std::printf(
          "sweep: replications=%zu, throughput mean=%.2f min=%.2f max=%.2f "
          "req/s, avg response mean=%.4g ms\n",
          runs->size(), thr_sum / n, thr_min, thr_max, avg_sum / n * 1e3);
      return 0;
    }
    auto stats = sim->RunOpen(sim_duration, sim_rate);
    if (!stats.ok()) return Fail(stats.status().ToString());
    std::printf("simulation: %s\n", stats->ToString().c_str());
    std::printf(
        "latency: p50=%.4g ms, p95=%.4g ms, p99=%.4g ms, max=%.4g ms\n",
        stats->p50_response_seconds * 1e3, stats->p95_response_seconds * 1e3,
        stats->p99_response_seconds * 1e3, stats->max_response_seconds * 1e3);
    if (have_fault_plan) {
      std::printf(
          "faults: plan=[%s], retried=%llu, redispatched=%llu, "
          "lag_drained=%llu, availability=%.4f%%\n",
          fault_plan.ToString().c_str(),
          static_cast<unsigned long long>(stats->retried_requests),
          static_cast<unsigned long long>(stats->redispatched_requests),
          static_cast<unsigned long long>(stats->lag_tasks_drained),
          stats->availability * 100.0);
    }
  }
  return 0;
}

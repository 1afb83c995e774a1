// E27: failure/recovery lifecycle -- what k-safety and the self-healing
// controller buy when a backend crashes mid-run.
//
// TPC-App on 5 backends, open loop. A 0-safe greedy allocation loses
// exclusively-held classes when their backend dies (rejections until the
// horizon); a k=1-safe allocation serves the whole offered load through the
// crash (only retries/redispatches), and the AdaptiveController's self-heal
// detects the k-safety violation at the next control interval, re-allocates
// onto the survivors plus a replacement, migrates live, and reports a finite
// recovery time. The timeline section shows the throughput dip and recovery
// around the fault. Every run is bit-deterministic for the fixed seed; the
// bench re-runs the self-healing scenario and fails loudly if its report
// differs.
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "adaptive_scenario.h"
#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

constexpr double kDuration = 60.0;
constexpr double kRate = 4000.0;
constexpr double kCrashTime = 20.0;
constexpr uint64_t kSeed = 9;
constexpr size_t kNodes = 5;
constexpr double kBinSeconds = 5.0;
// Crash scenarios run as replication sweeps (seeds 9..11) fanned over the
// thread pool; the table shows the base seed and the acceptance guards
// check every replication.
constexpr size_t kReplications = 3;

/// The backend whose death hurts the 0-safe allocation most: the exclusive
/// server of some read class (killing it makes that class unservable).
size_t PickVictim(const Layout& p) {
  for (const QueryClass& c : p.classification.reads) {
    size_t capable = 0;
    size_t last = 0;
    for (size_t b = 0; b < p.backends.size(); ++b) {
      if (p.allocation.HoldsAll(b, c.fragments)) {
        ++capable;
        last = b;
      }
    }
    if (capable == 1) return last;
  }
  return 0;
}

SimulationConfig BaseConfig() {
  SimulationConfig config;
  config.cost_params = TpcAppCostParams();
  config.seed = kSeed;
  config.servers_per_backend = 4;
  config.timeline_bin_seconds = kBinSeconds;
  return config;
}

void PrintStatsRow(const char* label, const SimStats& stats) {
  PrintRow({label, Fmt(stats.throughput, 1),
            Fmt(stats.availability * 100.0, 3),
            std::to_string(stats.rejected_requests),
            std::to_string(stats.failed_requests),
            std::to_string(stats.retried_requests),
            std::to_string(stats.redispatched_requests),
            Fmt(stats.p99_response_seconds * 1e3, 2), "-"},
           13);
}

void PrintTimeline(const char* label, const SimStats& stats) {
  std::printf("%s timeline (completions per %.0fs bin):", label,
              stats.timeline_bin_seconds);
  for (uint64_t c : stats.timeline_completions) {
    std::printf(" %llu", static_cast<unsigned long long>(c));
  }
  std::printf("\n");
}

/// Heal-only AdaptiveController policy over the same horizon: fixed size,
/// no drift re-allocation, Algorithm 3 at k = 1. One 5-s control interval
/// per timeline bin, simulated in full (sim time is real time).
AdaptiveReport SelfHeal(const Classification& cls, Allocator* allocator,
                        size_t victim) {
  AdaptiveOptions options;
  options.bucket_seconds = options.slice_seconds = kBinSeconds;
  options.min_nodes = options.max_nodes = kNodes;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.k_safety = 1;
  options.sim = BaseConfig();
  AdaptiveController controller(cls, allocator, options);
  CheckOk(controller.Install(kNodes), "self-heal install");
  std::vector<BucketDemand> buckets;
  for (double t = 0.0; t < kDuration; t += kBinSeconds) {
    buckets.push_back({t, kRate, {}});
  }
  FaultPlan faults;
  faults.Crash(kCrashTime, victim);
  return ValueOrDie(controller.ReplayDay(buckets, faults), "self-heal run");
}

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(100000);

  GreedyAllocator greedy;
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  Layout unsafe = ValueOrDie(
      BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                  HomogeneousBackends(kNodes)),
      "greedy pipeline");
  Layout safe = ValueOrDie(
      BuildLayout(catalog, journal, {Granularity::kTable}, ksafe,
                  HomogeneousBackends(kNodes)),
      "ksafe pipeline");

  const size_t victim = PickVictim(unsafe);
  PrintHeader("crash of backend " + std::to_string(victim + 1) + " at t=" +
                  Fmt(kCrashTime, 0) + "s (" + Fmt(kDuration, 0) + "s at " +
                  Fmt(kRate, 0) + " q/s)",
              {"allocation", "thrpt q/s", "avail %", "rejected", "failed",
               "retried", "redisp", "p99 ms", "recov s"},
              13);

  const auto simulate = [&](const Layout& p, const SimulationConfig& config) {
    auto sim = ValueOrDie(
        ClusterSimulator::Create(p.classification, p.allocation, p.backends,
                                 config),
        "simulator");
    SweepOptions sweep;
    sweep.repeat = kReplications;
    sweep.threads = ThreadPool::DefaultThreads();
    return ValueOrDie(sim.RunOpenSweep(kDuration, kRate, sweep),
                      "open-loop sweep");
  };

  SimulationConfig healthy_config = BaseConfig();
  const std::vector<SimStats> healthy = simulate(safe, healthy_config);
  PrintStatsRow("no fault", healthy[0]);

  SimulationConfig crash_config = BaseConfig();
  crash_config.fault_plan.Crash(kCrashTime, victim);
  const std::vector<SimStats> unsafe_crash = simulate(unsafe, crash_config);
  PrintStatsRow("greedy k=0", unsafe_crash[0]);
  const std::vector<SimStats> safe_crash = simulate(safe, crash_config);
  PrintStatsRow("ksafe k=1", safe_crash[0]);

  // Self-healing controller: same crash on the same k=1 layout, driven
  // through the AdaptiveController with a heal-only policy. One control
  // interval is one 5-s timeline bin (sim time is real time), so Algorithm 3
  // sees the crash at the next bin edge and the repair migrates live.
  const AdaptiveReport healed = SelfHeal(safe.classification, &ksafe, victim);
  const TransitionRecord* repair = nullptr;
  for (const TransitionRecord& t : healed.transitions) {
    if (t.completed && t.action == AdaptiveAction::kSelfHeal) repair = &t;
  }
  uint64_t healed_completed = 0;
  uint64_t healed_rejected = 0;
  uint64_t healed_failed = 0;
  for (const AdaptiveStep& step : healed.steps) {
    healed_completed += step.completed;
    healed_rejected += step.rejected;
    healed_failed += step.failed;
  }
  const double recovery =
      repair != nullptr ? repair->swap_seconds - kCrashTime : 0.0;
  PrintRow({"self-heal",
            Fmt(static_cast<double>(healed_completed) / kDuration, 1),
            Fmt(healed.availability * 100.0, 3),
            std::to_string(healed_rejected), std::to_string(healed_failed),
            "-", "-", Fmt(healed.worst_p99_ms, 2), Fmt(recovery, 2)},
           13);

  std::printf("\n");
  PrintTimeline("greedy k=0", unsafe_crash[0]);
  PrintTimeline("ksafe k=1 ", safe_crash[0]);
  std::printf("self-heal  timeline (completions per %.0fs bin):", kBinSeconds);
  for (const AdaptiveStep& step : healed.steps) {
    std::printf(" %llu", static_cast<unsigned long long>(step.completed));
  }
  std::printf("\n");

  if (repair != nullptr) {
    std::printf(
        "\nrepair: backend %zu crashed t=%.1fs, %s; decided t=%.1fs, ETL "
        "%.2f GB in %.1fs, swapped t=%.1fs (recovery %.1fs)\n",
        victim + 1, kCrashTime, repair->cause.c_str(),
        repair->decided_seconds,
        repair->moved_bytes / (1024.0 * 1024.0 * 1024.0),
        repair->etl_seconds, repair->swap_seconds, recovery);
  }

  // Acceptance + determinism guards: fail loudly if the lifecycle
  // guarantees regress in any replication.
  for (const SimStats& run : unsafe_crash) {
    if (run.rejected_requests == 0) {
      std::fprintf(stderr, "FATAL: 0-safe crash should reject requests\n");
      std::exit(1);
    }
  }
  for (const SimStats& run : safe_crash) {
    if (run.rejected_requests != 0 || run.failed_requests != 0) {
      std::fprintf(stderr, "FATAL: k=1-safe crash must serve the full load\n");
      std::exit(1);
    }
  }
  if (repair == nullptr || !(recovery > 0.0) ||
      healed.availability != 1.0) {
    std::fprintf(stderr, "FATAL: self-healing must report a finite repair\n");
    std::exit(1);
  }
  if (SerializeReport(healed) !=
      SerializeReport(SelfHeal(safe.classification, &ksafe, victim))) {
    std::fprintf(stderr, "FATAL: self-healing run is not deterministic\n");
    std::exit(1);
  }
  std::printf(
      "\npaper shape: k-safety turns a crash from rejected requests into "
      "retries; the autonomic controller restores redundancy in finite "
      "time (deterministic re-run verified).\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E27: failure/recovery lifecycle (fault injection + "
              "self-healing)\n");
  qcap::bench::Run();
  return 0;
}

// Autonomic elasticity: replay a diurnal workload trace against the
// adaptive control loop with a scale-only policy (Section 5) and print how
// the cluster grows through the day and shrinks at night, including the
// data each resize moved (planned by Hungarian matching, migrated live).
//
// Build & run:  ./build/examples/autonomic_elasticity
#include <cstdio>
#include <limits>

#include "alloc/greedy.h"
#include "autonomic/control_loop.h"
#include "common/strings.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

using namespace qcap;

int main() {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(40000, 99);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(journal);
  if (!cls.ok()) {
    std::fprintf(stderr, "%s\n", cls.status().ToString().c_str());
    return 1;
  }

  // Scale-only: no drift re-allocation, no redundancy target; scale out
  // when p99 breaks the SLO on a busy cluster, scale in when it idles.
  AdaptiveOptions options;
  options.slo_p99_ms = 45.0;
  options.scale_up_utilization = 0.4;
  options.scale_down_utilization = 0.3;
  options.scale_down_headroom = 0.95;
  options.min_nodes = 1;
  options.max_nodes = 6;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.k_safety = 0;
  options.slice_seconds = 6.0;
  options.sim.cost_params.memory_bytes = 8.0 * 1024 * 1024 * 1024;
  options.sim.cost_params.io_fraction = 0.4;
  options.sim.servers_per_backend = 4;

  // The paper scaled its trace by 40x; the simulated backends are faster
  // than its 2009-era nodes, so scale harder to outgrow one node.
  std::vector<BucketDemand> day;
  for (const workloads::TracePoint& p : workloads::SampleDay(99)) {
    day.push_back({p.tod_seconds, p.requests_per_10min * 150.0 / 600.0, {}});
  }

  GreedyAllocator greedy;
  AdaptiveController controller(cls.value(), &greedy, options);
  Status installed = controller.Install(options.min_nodes);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }
  auto report = controller.ReplayDay(day, FaultPlan{});
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("time   load(q/s)  nodes  avg-response   p99\n");
  for (const AdaptiveStep& step : report->steps) {
    if (static_cast<int>(step.tod_seconds) % 3600 != 0) continue;  // Hourly.
    std::printf("%02d:00   %8.1f   %4zu   %8.1f ms   %5.1f ms\n",
                static_cast<int>(step.tod_seconds / 3600.0), step.offered_qps,
                step.nodes, step.avg_ms, step.p99_ms);
  }

  std::printf("\nresizes:\n");
  for (const TransitionRecord& t : report->transitions) {
    const int decided = static_cast<int>(t.decided_seconds);
    std::printf("  %02d:%02d %-9s %zu -> %zu nodes, %s moved%s\n",
                decided / 3600, decided % 3600 / 60, ToString(t.action),
                t.nodes_before, t.nodes_after,
                FormatBytes(t.moved_bytes).c_str(),
                t.completed ? "" : " (not swapped by day end)");
  }
  std::printf(
      "\nday summary: worst bucket p99 %.1f ms, %.2f%% served, %.1f "
      "node-hours (a static %zu-node cluster would burn %.1f)\n",
      report->worst_p99_ms, report->availability * 100.0,
      report->node_seconds / 3600.0, options.max_nodes,
      static_cast<double>(options.max_nodes) * 24.0);
  return 0;
}

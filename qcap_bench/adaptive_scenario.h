// The adaptive-day scenario of bench_adaptive: a simulated day of the
// diurnal trace workload with drift, a 10:05 crash, a 14:00-15:00 straggler
// and a 3x load spike from 19:00 to 20:00, driven through an
// AdaptiveController one Step per 10-minute bucket.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/ksafety.h"
#include "autonomic/control_loop.h"
#include "workload/classifier.h"
#include "workloads/trace.h"

namespace qcap::bench {

/// Everything one replay needs. The catalog and journal own storage the
/// classification references, so they ride along.
struct AdaptiveScenario {
  engine::Catalog catalog;
  QueryJournal journal;
  Classification cls;
  /// Per classification class (reads then updates): the trace class
  /// (A..E) its member queries instantiate.
  std::vector<size_t> trace_class_of;
  std::vector<BucketDemand> day;
  FaultPlan faults;
  AdaptiveOptions options;
  size_t start_nodes = 4;
};

/// The controller tuning bench_adaptive uses (see bench/bench_adaptive.cc).
inline AdaptiveOptions AdaptiveLoopOptions(uint64_t seed, bool smoke) {
  AdaptiveOptions options;
  options.slo_p99_ms = 48.0;
  options.scale_up_utilization = 0.3;
  options.scale_down_utilization = 0.12;
  options.scale_down_headroom = 0.9;
  options.min_nodes = 3;
  options.max_nodes = 8;
  options.window_buckets = 2;
  options.drift_threshold = 0.35;
  options.resegment_after = 2;
  options.cooldown_buckets = 1;
  options.k_safety = 1;
  options.slice_seconds = smoke ? 6.0 : 10.0;
  options.sim.seed = seed;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  options.etl = EtlCostModel{2e10, 2e10, 2e10, 1.0};
  options.migration.min_catchup_seconds = 60.0;
  return options;
}

/// Builds the day sampled with \p seed: the full 144 buckets at 40x the
/// trace rate, or with \p smoke a 12-bucket morning at 10x with one early
/// crash.
inline Status BuildAdaptiveScenario(uint64_t seed, bool smoke,
                                    AdaptiveScenario* scenario) {
  const size_t buckets = smoke ? 12 : 144;
  const double multiplier = smoke ? 10.0 : 40.0;
  scenario->catalog = workloads::TraceCatalog();
  scenario->journal = workloads::TraceJournal(20000, 3);
  Classifier classifier(scenario->catalog, {Granularity::kTable, 4, true});
  QCAP_ASSIGN_OR_RETURN(scenario->cls,
                        classifier.Classify(scenario->journal));

  const std::vector<Query> templates = workloads::TraceQueries();
  auto trace_index = [&](const QueryClass& qc, size_t* out) {
    if (qc.members.empty()) return false;
    const std::string& text =
        scenario->journal.queries()[qc.members.front()].text;
    for (size_t t = 0; t < templates.size(); ++t) {
      if (templates[t].text == text) {
        *out = t;
        return true;
      }
    }
    return false;
  };
  scenario->trace_class_of.clear();
  for (const auto* classes : {&scenario->cls.reads, &scenario->cls.updates}) {
    for (const QueryClass& qc : *classes) {
      size_t t = 0;
      if (!trace_index(qc, &t)) {
        return Status::Internal("class matches no trace template");
      }
      scenario->trace_class_of.push_back(t);
    }
  }

  // Per-bucket arrival rate and trace-class shares; each bucket's weight
  // multipliers are its class shares relative to the whole-day average.
  const std::vector<workloads::TracePoint> points =
      workloads::SampleDay(seed, 600.0);
  std::vector<double> day_share(workloads::kTraceClasses, 0.0);
  double day_total = 0.0;
  for (const workloads::TracePoint& p : points) {
    for (size_t t = 0; t < day_share.size(); ++t) {
      day_share[t] += p.class_requests[t];
      day_total += p.class_requests[t];
    }
  }
  for (double& share : day_share) share /= day_total;

  const double spike_begin = 68400.0, spike_end = 72000.0;  // 19:00-20:00
  scenario->day.clear();
  for (size_t i = 0; i < std::min(buckets, points.size()); ++i) {
    const workloads::TracePoint& p = points[i];
    BucketDemand demand;
    demand.tod_seconds = p.tod_seconds;
    demand.offered_qps = p.requests_per_10min * multiplier / 600.0;
    if (!smoke && p.tod_seconds >= spike_begin && p.tod_seconds < spike_end) {
      demand.offered_qps *= 3.0;
    }
    double bucket_total = 0.0;
    for (double r : p.class_requests) bucket_total += r;
    demand.class_weight_scale.assign(scenario->cls.NumClasses(), 1.0);
    for (size_t c = 0; c < demand.class_weight_scale.size(); ++c) {
      const size_t t = scenario->trace_class_of[c];
      demand.class_weight_scale[c] =
          (p.class_requests[t] / bucket_total) / day_share[t];
    }
    scenario->day.push_back(std::move(demand));
  }

  scenario->faults = FaultPlan();
  if (smoke) {
    scenario->faults.Crash(2100.0, 1);
  } else {
    scenario->faults.Crash(36300.0, 1)
        .Degrade(50400.0, 2, 1.8)
        .Degrade(54000.0, 2, 1.0);
  }
  scenario->options = AdaptiveLoopOptions(seed, smoke);
  return Status::OK();
}

/// Bit-exact serialization of everything a replay decides and observes;
/// string equality is report equality.
inline std::string SerializeReport(const AdaptiveReport& report) {
  std::string out;
  char line[320];
  for (const AdaptiveStep& s : report.steps) {
    std::snprintf(
        line, sizeof(line),
        "S %.17g %zu %.17g %.17g %.17g %.17g %.17g %.17g %d %d %d %llu "
        "%llu %llu %zu\n",
        s.tod_seconds, s.nodes, s.offered_qps, s.p99_ms, s.avg_ms,
        s.availability, s.utilization, s.drift, static_cast<int>(s.decision),
        static_cast<int>(s.phase), s.swapped ? 1 : 0,
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.rejected), s.dead_backends);
    out += line;
  }
  for (const TransitionRecord& t : report.transitions) {
    std::snprintf(line, sizeof(line),
                  "T %d %.17g %.17g %.17g %.17g %zu %zu %.17g %.17g %.17g "
                  "%.17g %d %d\n",
                  static_cast<int>(t.action), t.decided_seconds,
                  t.swap_seconds, t.moved_bytes, t.etl_seconds,
                  t.nodes_before, t.nodes_after, t.p99_before_ms,
                  t.p99_during_ms, t.p99_after_ms, t.availability_during,
                  t.aborted ? 1 : 0, t.completed ? 1 : 0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "R %.17g %.17g %.17g %.17g\n",
                report.slo_attainment, report.availability,
                report.worst_p99_ms, report.node_seconds);
  out += line;
  return out;
}

}  // namespace qcap::bench

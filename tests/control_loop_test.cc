// Pins for the adaptive control loop and the live routing hot-swap:
//  - a Dispatcher::SwapRouting mid-stream drops nothing and keeps routing
//    decisions bit-identical (same-table swap ≡ no swap; new-table swap ≡
//    a reference Scheduler that inherited the rotation and pending state);
//  - a crash mid-migration aborts the in-flight plan and self-heals
//    without ever violating k-safety at the end of the day;
//  - a full day replay is bit-deterministic for a fixed seed;
//  - an idle (0-qps) interval steps without simulating and still applies
//    its faults;
//  - the scale-only policy (drift off, k = 0) tracks the diurnal load
//    (Section 5 Figures 4 and 5), and the heal-only policy (fixed size,
//    k = 1) repairs an Algorithm-3 violation after a crash.
#include "autonomic/control_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "cluster/pending_index.h"
#include "cluster/scheduler.h"
#include "model/validation.h"
#include "net/dispatcher.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"
#include "workloads/trace.h"

namespace qcap {
namespace {

// --- Dispatcher hot-swap parity ------------------------------------------

/// Appendix A placement on 4 backends (backend 0 holds everything).
Allocation SmallAllocation() {
  Allocation alloc(4, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  return alloc;
}

/// Scale-out of SmallAllocation: a fifth backend that holds everything.
Allocation ScaledOutAllocation() {
  Allocation alloc(5, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  alloc.PlaceSet(4, {0, 1, 2});
  return alloc;
}

std::unique_ptr<net::Dispatcher> MakeDispatcher(const Classification& cls,
                                                const Allocation& alloc) {
  auto dispatcher = net::Dispatcher::Create(cls, alloc, net::ServingLimits{});
  EXPECT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  return std::move(dispatcher).value();
}

TEST(RoutingSwapTest, SwapToIdenticalTableIsInvisible) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation alloc = SmallAllocation();
  auto swapped = MakeDispatcher(cls, alloc);
  auto reference = MakeDispatcher(cls, alloc);

  for (int i = 0; i < 200; ++i) {
    if (i == 100) {
      ASSERT_TRUE(swapped->SwapRouting(cls, alloc).ok());
    }
    const std::string request = "SUBMIT R" + std::to_string(i % 4);
    const auto a = swapped->Execute(request, static_cast<double>(i));
    const auto b = reference->Execute(request, static_cast<double>(i));
    // Nothing dropped, nothing misrouted: every reply routes, and the
    // decision matches the never-swapped dispatcher bit for bit.
    ASSERT_EQ(a.text.rfind("OK BACKEND ", 0), 0u) << i << ": " << a.text;
    ASSERT_EQ(a.text, b.text) << "decision diverged at request " << i;
  }

  const net::ServingCounters counters = swapped->Snapshot();
  EXPECT_EQ(counters.reads_routed, 200u);
  EXPECT_EQ(counters.unservable, 0u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.bad_requests, 0u);
  EXPECT_EQ(counters.reloads, 1u);
  EXPECT_EQ(counters.routing_generation, 2u);
  EXPECT_EQ(reference->routing_generation(), 1u);
}

TEST(RoutingSwapTest, SwapToNewTableCarriesSchedulerState) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation before = SmallAllocation();
  const Allocation after = ScaledOutAllocation();
  auto dispatcher = MakeDispatcher(cls, before);

  // Reference: drive a Scheduler by hand, mirroring the dispatcher's
  // pending bookkeeping (reads only, no DONEs — depths only grow).
  auto ref = Scheduler::Build(cls, before);
  ASSERT_TRUE(ref.ok());
  Scheduler reference = std::move(ref).value();
  std::vector<size_t> pending(4, 0);

  for (int i = 0; i < 100; ++i) {
    const size_t cls_index = static_cast<size_t>(i % 4);
    const auto reply =
        dispatcher->Execute("SUBMIT R" + std::to_string(cls_index), 0.0);
    const size_t expect = reference.PickReadBackend(cls_index, pending);
    ++pending[expect];
    ASSERT_EQ(reply.text, "OK BACKEND " + std::to_string(expect)) << i;
  }

  ASSERT_TRUE(dispatcher->SwapRouting(cls, after).ok());
  EXPECT_EQ(dispatcher->num_backends(), 5u);

  // The reference swaps too: a new scheduler that inherits the rotation
  // counter, over the pending depths carried by index (new backend idle).
  auto ref2 = Scheduler::Build(cls, after);
  ASSERT_TRUE(ref2.ok());
  Scheduler reference_after = std::move(ref2).value();
  reference_after.set_rotation(reference.rotation());
  pending.resize(5, 0);

  for (int i = 0; i < 100; ++i) {
    const size_t cls_index = static_cast<size_t>(i % 4);
    const auto reply =
        dispatcher->Execute("SUBMIT R" + std::to_string(cls_index), 0.0);
    const size_t expect = reference_after.PickReadBackend(cls_index, pending);
    ++pending[expect];
    ASSERT_EQ(reply.text, "OK BACKEND " + std::to_string(expect))
        << "post-swap decision diverged at request " << i;
  }

  const net::ServingCounters counters = dispatcher->Snapshot();
  EXPECT_EQ(counters.reads_routed, 200u);
  EXPECT_EQ(counters.unservable, 0u);
  EXPECT_EQ(counters.routing_generation, 2u);
}

TEST(RoutingSwapTest, ReloadVerbDrivesTheProvider) {
  const Classification cls = testutil::AppendixAClassification();
  auto dispatcher = MakeDispatcher(cls, SmallAllocation());

  // Without a provider the verb reports, the table stays.
  EXPECT_EQ(dispatcher->Execute("RELOAD", 0.0).text.rfind("ERR NO_PROVIDER", 0),
            0u);

  dispatcher->SetReloadProvider(
      [&cls](std::string_view tag) -> Result<net::RoutingTable> {
        if (tag == "fail") return Status::InvalidArgument("boom");
        return net::RoutingTable{cls, ScaledOutAllocation()};
      });
  EXPECT_EQ(dispatcher->Execute("RELOAD fail", 0.0).text,
            "ERR RELOAD_FAILED boom");
  EXPECT_EQ(dispatcher->routing_generation(), 1u);

  const auto reply = dispatcher->Execute("RELOAD scale5", 0.0);
  EXPECT_EQ(reply.text,
            "OK RELOAD generation=2 backends=5 read_classes=4 "
            "update_classes=3");
  EXPECT_EQ(dispatcher->num_backends(), 5u);
  // The swapped table serves immediately.
  EXPECT_EQ(dispatcher->Execute("SUBMIT R0", 0.0).text.rfind("OK BACKEND ", 0),
            0u);
}

// --- Adaptive controller -------------------------------------------------

struct LoopFixture {
  engine::Catalog catalog = workloads::TraceCatalog();
  QueryJournal journal = workloads::TraceJournal(20000, 3);
  Classification cls;
  /// Per classification class (reads then updates): index of the trace
  /// class (A..E) its member queries belong to.
  std::vector<size_t> trace_class_of;

  LoopFixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    auto result = classifier.Classify(journal);
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();

    const std::vector<Query> templates = workloads::TraceQueries();
    auto trace_index = [&](const QueryClass& qc) -> size_t {
      EXPECT_FALSE(qc.members.empty());
      const std::string& text = journal.queries()[qc.members.front()].text;
      for (size_t t = 0; t < templates.size(); ++t) {
        if (templates[t].text == text) return t;
      }
      ADD_FAILURE() << "unknown trace query: " << text;
      return 0;
    };
    for (const QueryClass& qc : cls.reads) {
      trace_class_of.push_back(trace_index(qc));
    }
    for (const QueryClass& qc : cls.updates) {
      trace_class_of.push_back(trace_index(qc));
    }
  }

  /// Weight multipliers that push the offered mix toward trace class
  /// \p heavy (0 = A .. 4 = E).
  std::vector<double> MixShiftToward(size_t heavy, double factor) const {
    std::vector<double> scale(cls.NumClasses(), 1.0);
    for (size_t c = 0; c < scale.size(); ++c) {
      scale[c] = trace_class_of[c] == heavy ? factor : 1.0 / factor;
    }
    return scale;
  }
};

AdaptiveOptions FastOptions() {
  AdaptiveOptions options;
  options.slice_seconds = 4.0;
  options.window_buckets = 1;
  options.drift_threshold = 0.3;
  options.cooldown_buckets = 0;
  options.resegment_after = 100;  // keep these tests on the realloc path
  options.k_safety = 1;
  options.slo_p99_ms = 1e9;           // disable the scale-out path
  options.scale_down_utilization = -1.0;  // and the scale-in path
  options.min_nodes = 3;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  // Fast ETL so swaps land within a bucket or two of the decision.
  options.etl = EtlCostModel{2e10, 2e10, 2e10, 1.0};
  options.migration.min_catchup_seconds = 30.0;
  return options;
}

BucketDemand Bucket(double tod, double qps, std::vector<double> scale = {}) {
  BucketDemand demand;
  demand.tod_seconds = tod;
  demand.offered_qps = qps;
  demand.class_weight_scale = std::move(scale);
  return demand;
}

TEST(AdaptiveControllerTest, DriftTriggersALiveReallocationWithoutLoss) {
  LoopFixture fx;
  GreedyAllocator greedy;
  AdaptiveController controller(fx.cls, &greedy, FastOptions());
  ASSERT_TRUE(controller.Install(3).ok());

  // Bucket 0: night mix, far from the base weights → drift decision.
  const std::vector<double> night = fx.MixShiftToward(1, 6.0);
  std::vector<BucketDemand> day;
  for (int i = 0; i < 4; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0, night));
  }
  auto report = controller.ReplayDay(day, FaultPlan{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GE(report->reallocations, 1u);
  ASSERT_FALSE(report->transitions.empty());
  const TransitionRecord& first = report->transitions.front();
  EXPECT_EQ(first.action, AdaptiveAction::kReallocate);
  EXPECT_TRUE(first.completed);
  EXPECT_GT(first.moved_bytes, 0.0);
  EXPECT_GT(first.swap_seconds, first.decided_seconds);

  // Zero dropped or misrouted queries across the live swap: every offered
  // request completed in every bucket, including the split swap bucket.
  bool saw_swap = false;
  for (const AdaptiveStep& step : report->steps) {
    EXPECT_EQ(step.failed, 0u) << "at tod " << step.tod_seconds;
    EXPECT_EQ(step.rejected, 0u) << "at tod " << step.tod_seconds;
    EXPECT_GT(step.completed, 0u);
    saw_swap = saw_swap || step.swapped;
  }
  EXPECT_TRUE(saw_swap);

  // After the swap the layout serves the night mix: drift is back under
  // the threshold in the last bucket.
  EXPECT_LT(report->steps.back().drift, 0.3);
}

TEST(AdaptiveControllerTest, CrashMidMigrationAbortsAndSelfHeals) {
  LoopFixture fx;
  // The k-safety target and the allocator must agree: Algorithm 4 layouts
  // are what keep the cluster servable through the crash.
  KSafeGreedyAllocator greedy(KSafetyOptions{1, 1e-12, 0});
  AdaptiveOptions options = FastOptions();
  // Stretch the catch-up so the drift migration is still in flight when
  // the crash is detected one bucket later.
  options.migration.min_catchup_seconds = 700.0;
  AdaptiveController controller(fx.cls, &greedy, options);
  ASSERT_TRUE(controller.Install(3).ok());

  const std::vector<double> night = fx.MixShiftToward(1, 6.0);
  std::vector<BucketDemand> day;
  for (int i = 0; i < 8; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0, night));
  }
  // Bucket 0 decides the drift reallocation at t=600 (swap ≈ t=1300);
  // the crash at t=700 lands mid-COPY.
  FaultPlan faults;
  faults.Crash(700.0, 1);

  auto report = controller.ReplayDay(day, faults);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The drift plan was overtaken by events; the self-heal replaced it.
  ASSERT_GE(report->transitions.size(), 2u);
  EXPECT_EQ(report->transitions[0].action, AdaptiveAction::kReallocate);
  EXPECT_TRUE(report->transitions[0].aborted);
  EXPECT_FALSE(report->transitions[0].completed);
  EXPECT_EQ(report->transitions[1].action, AdaptiveAction::kSelfHeal);
  EXPECT_TRUE(report->transitions[1].completed);
  EXPECT_EQ(report->self_heals, 1u);

  // The repaired cluster is whole again and k-safe.
  for (bool alive : controller.alive()) EXPECT_TRUE(alive);
  EXPECT_TRUE(CheckKSafety(controller.base(), controller.allocation(),
                           controller.alive(), options.k_safety)
                  .ok());
  // Queries kept flowing throughout (the crash strands some in-flight
  // work, but nothing is rejected as unservable: k-safety held).
  for (const AdaptiveStep& step : report->steps) {
    EXPECT_EQ(step.rejected, 0u) << "at tod " << step.tod_seconds;
    EXPECT_GT(step.completed, 0u);
  }
}

TEST(AdaptiveControllerTest, DayReplayIsBitDeterministic) {
  LoopFixture fx;
  GreedyAllocator greedy;

  std::vector<BucketDemand> day;
  for (int i = 0; i < 6; ++i) {
    day.push_back(Bucket(600.0 * i, 250.0,
                         i < 3 ? std::vector<double>{}
                               : fx.MixShiftToward(1, 6.0)));
  }
  FaultPlan faults;
  faults.Crash(1500.0, 2).Recover(1900.0, 2);

  auto run = [&]() {
    AdaptiveController controller(fx.cls, &greedy, FastOptions());
    EXPECT_TRUE(controller.Install(3).ok());
    auto report = controller.ReplayDay(day, faults);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };
  const AdaptiveReport a = run();
  const AdaptiveReport b = run();

  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].p99_ms, b.steps[i].p99_ms) << i;
    EXPECT_EQ(a.steps[i].avg_ms, b.steps[i].avg_ms) << i;
    EXPECT_EQ(a.steps[i].completed, b.steps[i].completed) << i;
    EXPECT_EQ(a.steps[i].failed, b.steps[i].failed) << i;
    EXPECT_EQ(a.steps[i].nodes, b.steps[i].nodes) << i;
    EXPECT_EQ(a.steps[i].decision, b.steps[i].decision) << i;
    EXPECT_EQ(a.steps[i].drift, b.steps[i].drift) << i;
  }
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].action, b.transitions[i].action) << i;
    EXPECT_EQ(a.transitions[i].swap_seconds, b.transitions[i].swap_seconds)
        << i;
    EXPECT_EQ(a.transitions[i].moved_bytes, b.transitions[i].moved_bytes) << i;
  }
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.worst_p99_ms, b.worst_p99_ms);
}

TEST(AdaptiveControllerTest, RejectsBadInput) {
  LoopFixture fx;
  AdaptiveController no_allocator(fx.cls, nullptr, FastOptions());
  const Status status = no_allocator.Install(3);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());

  GreedyAllocator greedy;
  AdaptiveController controller(fx.cls, &greedy, FastOptions());
  EXPECT_FALSE(controller.Install(0).ok());
  EXPECT_FALSE(controller.Step(Bucket(0.0, 250.0), {}).ok());
  ASSERT_TRUE(controller.Install(3).ok());
  EXPECT_FALSE(controller.ReplayDay({}, FaultPlan{}).ok());
  for (double qps : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(controller.Step(Bucket(0.0, qps), {}).status()
                    .IsInvalidArgument())
        << qps;
  }
  // A NaN, infinite or negative mix multiplier would reach the simulator
  // as a NaN or negative class weight.
  const size_t classes = fx.cls.NumClasses();
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<double> scale(classes, 1.0);
    scale[classes / 2] = bad;
    EXPECT_TRUE(controller.Step(Bucket(0.0, 250.0, scale), {}).status()
                    .IsInvalidArgument())
        << bad;
  }
  EXPECT_TRUE(
      controller.Step(Bucket(0.0, 250.0, std::vector<double>(classes, 1.0)), {})
          .ok());
}

TEST(AdaptiveControllerTest, IdleBucketStepsWithoutSimulating) {
  LoopFixture fx;
  KSafeGreedyAllocator ksafe(KSafetyOptions{1, 1e-12, 0});

  // A 0-qps interval serves nothing, observes no mix and decides nothing.
  AdaptiveController idle(fx.cls, &ksafe, FastOptions());
  ASSERT_TRUE(idle.Install(3).ok());
  auto step = idle.Step(Bucket(600.0, 0.0), {});
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->completed, 0u);
  EXPECT_EQ(step->failed + step->rejected, 0u);
  EXPECT_EQ(step->availability, 1.0);
  EXPECT_EQ(step->utilization, 0.0);
  EXPECT_EQ(step->drift, 0.0);
  EXPECT_EQ(step->decision, AdaptiveAction::kNone);

  // A day with an idle bucket replays, and a crash inside that bucket
  // still marks the node dead: the k = 1 target starts the repair.
  AdaptiveController controller(fx.cls, &ksafe, FastOptions());
  ASSERT_TRUE(controller.Install(3).ok());
  const std::vector<BucketDemand> day = {
      Bucket(0.0, 250.0), Bucket(600.0, 0.0), Bucket(1200.0, 250.0)};
  FaultPlan faults;
  faults.Crash(700.0, 1);
  auto report = controller.ReplayDay(day, faults);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->steps.size(), 3u);
  EXPECT_GT(report->steps[0].completed, 0u);
  EXPECT_EQ(report->steps[1].completed, 0u);
  EXPECT_EQ(report->steps[1].dead_backends, 1u);
  EXPECT_EQ(report->steps[1].decision, AdaptiveAction::kSelfHeal);
  EXPECT_GT(report->steps[2].completed, 0u);
  EXPECT_EQ(report->steps[2].rejected, 0u);
}

// --- Scale-only and heal-only policies ------------------------------------

/// Scale-only: drift off, no redundancy target, resizes between
/// \p min_nodes and \p max_nodes (equal = the static baseline) on the
/// diurnal trace scaled 150x so the peak outgrows one backend.
AdaptiveReport ReplayScaleOnly(const Classification& cls, size_t min_nodes,
                               size_t max_nodes) {
  AdaptiveOptions options;
  options.slo_p99_ms = 45.0;
  options.scale_up_utilization = 0.4;
  options.scale_down_utilization = 0.3;
  options.scale_down_headroom = 0.95;
  options.min_nodes = min_nodes;
  options.max_nodes = max_nodes;
  options.drift_threshold = std::numeric_limits<double>::infinity();
  options.k_safety = 0;
  options.slice_seconds = 4.0;
  options.sim.servers_per_backend = 2;
  options.sim.cost_params.memory_bytes = 1e12;
  std::vector<BucketDemand> day;
  for (const workloads::TracePoint& p : workloads::SampleDay(3)) {
    day.push_back(Bucket(p.tod_seconds, p.requests_per_10min * 150.0 / 600.0));
  }
  GreedyAllocator greedy;
  AdaptiveController controller(cls, &greedy, options);
  EXPECT_TRUE(controller.Install(min_nodes).ok());
  auto report = controller.ReplayDay(day, FaultPlan{});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

TEST(ScaleOnlyPolicyTest, NodesTrackTheDayWithFewerNodeSecondsThanStatic) {
  LoopFixture fx;
  const AdaptiveReport autonomic = ReplayScaleOnly(fx.cls, 1, 5);
  size_t min_nodes = 100, max_nodes = 0;
  for (const AdaptiveStep& step : autonomic.steps) {
    min_nodes = std::min(min_nodes, step.nodes);
    max_nodes = std::max(max_nodes, step.nodes);
  }
  EXPECT_EQ(min_nodes, 1u);  // Night trough runs on one node.
  EXPECT_GT(max_nodes, 2u);  // Daytime peak grows the cluster.
  // Night bucket (4 am) uses fewer nodes than the evening peak (7 pm).
  EXPECT_LT(autonomic.steps[4 * 6].nodes, autonomic.steps[19 * 6].nodes);
  EXPECT_EQ(autonomic.availability, 1.0);

  // A joining node has to be filled; a scale-in may move nothing (a
  // survivor can already hold the whole smaller layout).
  ASSERT_GT(autonomic.scale_outs, 0u);
  for (const TransitionRecord& t : autonomic.transitions) {
    if (t.completed && t.action == AdaptiveAction::kScaleOut) {
      EXPECT_GT(t.moved_bytes, 0.0) << "at " << t.decided_seconds;
    }
  }

  // Pinning min_nodes == max_nodes is the static baseline: no transition.
  const AdaptiveReport fixed = ReplayScaleOnly(fx.cls, 5, 5);
  EXPECT_TRUE(fixed.transitions.empty());
  for (const AdaptiveStep& step : fixed.steps) EXPECT_EQ(step.nodes, 5u);
  EXPECT_LT(autonomic.node_seconds, 0.8 * fixed.node_seconds);
}

/// Heal-only: a fixed 5-node k=1 TPC-App layout, 60 s at 400 q/s in 5-s
/// control intervals simulated in full, backend 2 crashing at t=10.
TEST(HealOnlyPolicyTest, RepairsKSafetyViolationOnlyWhenTheTargetDemandsIt) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(100.0);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workloads::TpcAppJournal(20000));
  ASSERT_TRUE(cls.ok());
  KSafeGreedyAllocator ksafe(KSafetyOptions{1, 1e-12, 0});
  std::vector<BucketDemand> buckets;
  for (int i = 0; i < 12; ++i) buckets.push_back(Bucket(5.0 * i, 400.0));
  FaultPlan faults;
  faults.Crash(10.0, 2);

  for (int k : {1, 0}) {
    AdaptiveOptions options;
    options.bucket_seconds = options.slice_seconds = 5.0;
    options.min_nodes = options.max_nodes = 5;
    options.drift_threshold = std::numeric_limits<double>::infinity();
    options.k_safety = k;
    options.sim.seed = 9;
    AdaptiveController controller(*cls, &ksafe, options);
    ASSERT_TRUE(controller.Install(5).ok());
    auto report = controller.ReplayDay(buckets, faults);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const AdaptiveStep& step : report->steps) {
      EXPECT_EQ(step.rejected, 0u) << "k=" << k << " at " << step.tod_seconds;
    }
    if (k == 0) {
      // One crash of a k=1-safe layout keeps every class servable.
      EXPECT_TRUE(report->transitions.empty());
      continue;
    }
    // One crash under k=1 drops the margin to zero: Algorithm 3 flags it
    // at the next interval edge and the controller repairs live.
    ASSERT_EQ(report->transitions.size(), 1u);
    const TransitionRecord& heal = report->transitions[0];
    EXPECT_EQ(heal.action, AdaptiveAction::kSelfHeal);
    EXPECT_TRUE(heal.completed);
    EXPECT_GT(heal.cause.size(), std::string("k-safety violated: ").size());
    EXPECT_EQ(heal.cause.rfind("k-safety violated: ", 0), 0u);
    EXPECT_GE(heal.decided_seconds, 10.0);
    EXPECT_GT(heal.swap_seconds, heal.decided_seconds);
    EXPECT_GT(heal.moved_bytes, 0.0);
    // The repaired cluster is whole again and k-safe.
    for (bool alive : controller.alive()) EXPECT_TRUE(alive);
    EXPECT_TRUE(CheckKSafety(controller.base(), controller.allocation(),
                             controller.alive(), k)
                    .ok());
  }
}

}  // namespace
}  // namespace qcap

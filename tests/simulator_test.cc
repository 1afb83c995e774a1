#include "cluster/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "cluster/backend_node.h"
#include "test_util.h"
#include "workloads/synthetic_scale.h"

namespace qcap {
namespace {

SimulationConfig LightConfig(uint64_t seed = 1) {
  SimulationConfig config;
  config.cost_params.memory_bytes = 1e12;  // Disable cache effects.
  config.servers_per_backend = 1;
  config.seed = seed;
  return config;
}

TEST(BackendNodeTest, QueueAndServers) {
  BackendNode node(2);
  EXPECT_EQ(node.pending(), 0u);
  node.Enqueue(BackendTask{0, 1.0, 0.0});
  node.Enqueue(BackendTask{1, 1.0, 0.0});
  node.Enqueue(BackendTask{2, 1.0, 0.0});
  EXPECT_EQ(node.pending(), 3u);
  BackendTask task;
  double completion;
  ASSERT_TRUE(node.StartNext(0.0, &task, &completion));
  EXPECT_DOUBLE_EQ(completion, 1.0);
  ASSERT_TRUE(node.StartNext(0.0, &task, &completion));
  EXPECT_DOUBLE_EQ(completion, 1.0);  // Second server.
  EXPECT_FALSE(node.CanStart(0.0));   // Both busy.
  EXPECT_TRUE(node.CanStart(1.0));
  node.FinishOne(1.0);
  EXPECT_EQ(node.pending(), 2u);
  EXPECT_DOUBLE_EQ(node.busy_seconds(), 1.0);
}

TEST(SimulatorTest, SingleBackendThroughputMatchesServiceTime) {
  // One backend, one read class with mean cost 10ms and no io scaling:
  // throughput ~ 1/service.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto sim = ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                      LightConfig());
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto stats = sim->RunClosed(2000, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_total(), 2000u);
  EXPECT_NEAR(stats->throughput, 100.0, 5.0);
}

TEST(SimulatorTest, ReadOnlyFullReplicationScalesLinearly) {
  const Classification cls = testutil::Figure2Classification();
  FullReplicationAllocator full;
  std::vector<double> throughput;
  for (size_t n : {1, 4}) {
    const auto backends = HomogeneousBackends(n);
    auto alloc = full.Allocate(cls, backends);
    ASSERT_TRUE(alloc.ok());
    auto sim = ClusterSimulator::Create(cls, alloc.value(), backends,
                                        LightConfig());
    ASSERT_TRUE(sim.ok());
    auto stats = sim->RunClosed(4000, 4 * n);
    ASSERT_TRUE(stats.ok());
    throughput.push_back(stats->throughput);
  }
  EXPECT_NEAR(throughput[1] / throughput[0], 4.0, 0.4);
}

TEST(SimulatorTest, UpdatesFanOutButCountOnce) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.5, 0.01, false, "Q1", {}}};
  cls.updates = {QueryClass{{0}, 0.5, 0.01, true, "U1", {}}};
  // Two backends, both hold A -> every update runs on both.
  Allocation a(2, 1, 1, 1);
  a.Place(0, 0);
  a.Place(1, 0);
  a.set_read_assign(0, 0, 0.25);
  a.set_read_assign(1, 0, 0.25);
  a.set_update_assign(0, 0, 0.5);
  a.set_update_assign(1, 0, 0.5);
  const auto backends = HomogeneousBackends(2);
  auto sim = ClusterSimulator::Create(cls, a, backends, LightConfig());
  ASSERT_TRUE(sim.ok());
  auto stats = sim->RunClosed(1000, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_total(), 1000u);
  EXPECT_GT(stats->completed_updates, 300u);
  // Updates ran on both backends: total busy time exceeds 1000 x 10ms.
  const double busy_total =
      stats->backend_busy_seconds[0] + stats->backend_busy_seconds[1];
  EXPECT_GT(busy_total, 1000 * 0.010 * 1.2);
}

TEST(SimulatorTest, SchedulerRejectsUnservableClass) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.01, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);  // A placed nowhere.
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(1), LightConfig());
  EXPECT_FALSE(sim.ok());
}

TEST(SimulatorTest, DeterministicForSeed) {
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(3);
  auto alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  auto sim1 =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig(9));
  auto sim2 =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig(9));
  ASSERT_TRUE(sim1.ok());
  ASSERT_TRUE(sim2.ok());
  auto s1 = sim1->RunClosed(500, 6);
  auto s2 = sim2->RunClosed(500, 6);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(s1->throughput, s2->throughput);
  EXPECT_DOUBLE_EQ(s1->avg_response_seconds, s2->avg_response_seconds);
}

TEST(SimulatorTest, OpenLoopLowLoadHasLowLatency) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto sim = ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                      LightConfig());
  ASSERT_TRUE(sim.ok());
  // 10% utilization: response ~ service time.
  auto stats = sim->RunOpen(100.0, 10.0);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->completed_total(), 800u);
  EXPECT_LT(stats->avg_response_seconds, 0.015);
}

TEST(SimulatorTest, OpenLoopOverloadDegradesLatency) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 0.010, false, "Q1", {}}};
  Allocation a(1, 1, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  auto make_sim = [&]() {
    return ClusterSimulator::Create(cls, a, HomogeneousBackends(1),
                                    LightConfig());
  };
  auto low = make_sim();
  auto high = make_sim();
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  auto low_stats = low->RunOpen(50.0, 20.0);
  auto high_stats = high->RunOpen(50.0, 300.0);  // 3x capacity.
  ASSERT_TRUE(low_stats.ok());
  ASSERT_TRUE(high_stats.ok());
  EXPECT_GT(high_stats->avg_response_seconds,
            5.0 * low_stats->avg_response_seconds);
}

TEST(SimulatorTest, RejectsBadRunArguments) {
  const Classification cls = testutil::Figure2Classification();
  FullReplicationAllocator full;
  const auto backends = HomogeneousBackends(2);
  auto alloc = full.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  auto sim =
      ClusterSimulator::Create(cls, alloc.value(), backends, LightConfig());
  ASSERT_TRUE(sim.ok());
  EXPECT_FALSE(sim->RunClosed(0, 4).ok());
  EXPECT_FALSE(sim->RunClosed(10, 0).ok());
  EXPECT_FALSE(sim->RunOpen(-1.0, 10.0).ok());
  EXPECT_FALSE(sim->RunOpen(10.0, 0.0).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(sim->RunOpen(10.0, nan).ok());
  EXPECT_FALSE(sim->RunOpen(10.0, inf).ok());
  EXPECT_FALSE(sim->RunOpen(nan, 10.0).ok());
  EXPECT_FALSE(sim->RunOpen(inf, 10.0).ok());
}

/// Create on the Appendix A classes (3 fragments, 4 reads, 3 updates) and
/// two backends, with an allocation of the given shape holding every
/// fragment it has on every backend it has. Any mismatch must fail with
/// InvalidArgument naming \p dimension, not index past the allocation's
/// placement rows or the service matrix.
void ExpectShapeRejected(size_t backends, size_t fragments, size_t reads,
                         size_t updates, const std::string& dimension) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a(backends, fragments, reads, updates);
  for (size_t b = 0; b < backends; ++b) {
    for (FragmentId f = 0; f < fragments; ++f) a.Place(b, f);
  }
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(2), LightConfig());
  ASSERT_FALSE(sim.ok()) << "accepted a " << dimension << " mismatch";
  EXPECT_TRUE(sim.status().IsInvalidArgument()) << sim.status().ToString();
  EXPECT_NE(sim.status().ToString().find(dimension), std::string::npos)
      << sim.status().ToString();
}

TEST(SimulatorTest, RejectsAllocationBackendMismatch) {
  ExpectShapeRejected(3, 3, 4, 3, "backends");
  ExpectShapeRejected(1, 3, 4, 3, "backends");
}

TEST(SimulatorTest, RejectsAllocationFragmentMismatch) {
  ExpectShapeRejected(2, 4, 4, 3, "fragments");
}

TEST(SimulatorTest, RejectsAllocationReadMismatch) {
  ExpectShapeRejected(2, 3, 5, 3, "read classes");
}

TEST(SimulatorTest, RejectsAllocationUpdateMismatch) {
  ExpectShapeRejected(2, 3, 4, 2, "update classes");
}

TEST(SimulatorTest, RejectedDispatchDoesNotAdvanceTieRotation) {
  // Pins the tie-rotation fix: a dispatch that fails (every candidate of
  // the class dead) must not consume a rotation step, or each rejection
  // would silently shift every later tie-break. RA's two candidates tie
  // constantly; RB's only backend is crashed at t=0, so its requests are
  // all rejected. With rejections consuming rotation steps, RA's
  // alternation breaks and one backend collects about twice the work of
  // the other; with the fix the two stay within one service time.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.5, 0.010, false, "RA", {}},
               QueryClass{{1}, 0.5, 0.010, false, "RB", {}}};
  Allocation a(3, 2, 2, 0);
  a.Place(0, 0);  // b0: A.
  a.Place(1, 0);  // b1: A.
  a.Place(2, 1);  // b2: B.
  SimulationConfig config = LightConfig();
  config.fault_plan.events = {FaultEvent{FaultEvent::Kind::kCrash, 0.0, 2}};
  config.retry.max_attempts = 1;
  auto sim =
      ClusterSimulator::Create(cls, a, HomogeneousBackends(3), config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto stats = sim->RunClosed(400, 1);
  ASSERT_TRUE(stats.ok());
  // The crashed class really was offered and rejected throughout the run.
  EXPECT_GT(stats->rejected_requests, 50u);
  ASSERT_EQ(stats->backend_busy_seconds.size(), 3u);
  EXPECT_NEAR(stats->backend_busy_seconds[0], stats->backend_busy_seconds[1],
              0.010 + 1e-12);
}

/// A 12-class synthetic instance (10 reads, 2 updates) greedily allocated
/// over 4 backends; tests mutate the class mix after allocation.
struct SmallSynthetic {
  SmallSynthetic() {
    workloads::ScaleOptions so;
    so.num_fragments = 8;
    so.num_read_classes = 10;
    so.num_update_classes = 2;
    so.seed = 5;
    cls = workloads::MakeScaleClassification(so);
    auto result = GreedyAllocator().Allocate(cls, backends);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    alloc = std::move(result).value();
  }
  std::vector<BackendSpec> backends = HomogeneousBackends(4);
  Classification cls;
  Allocation alloc;
};

TEST(SimulatorTest, CreateRejectsAClassMixItCannotSample) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const SmallSynthetic fx;
  ASSERT_EQ(fx.cls.NumClasses(), 12u);
  ASSERT_TRUE(ClusterSimulator::Create(fx.cls, fx.alloc, fx.backends,
                                       SimulationConfig{})
                  .ok());
  struct Case {
    const char* name;
    void (*mutate)(Classification*);
    const char* names;  // the class the message must name, or ""
  };
  const Case cases[] = {
      {"NaN weight", [](Classification* c) { c->reads[0].weight = kNan; },
       "'Q0'"},
      {"NaN mean cost",
       [](Classification* c) { c->reads[0].mean_cost = kNan; }, "'Q0'"},
      {"infinite weight",
       [](Classification* c) { c->updates[1].weight = kInf; }, "'U1'"},
      {"negative weight",
       [](Classification* c) { c->reads[3].weight = -0.1; }, "'Q3'"},
      {"all-zero weights",
       [](Classification* c) {
         for (auto& q : c->reads) q.weight = 0.0;
         for (auto& q : c->updates) q.weight = 0.0;
       },
       ""},
  };
  for (const Case& c : cases) {
    Classification cls = fx.cls;
    c.mutate(&cls);
    auto sim =
        ClusterSimulator::Create(cls, fx.alloc, fx.backends, SimulationConfig{});
    EXPECT_FALSE(sim.ok()) << c.name;
    if (sim.ok()) continue;
    EXPECT_TRUE(sim.status().IsInvalidArgument()) << c.name;
    EXPECT_NE(sim.status().message().find(c.names), std::string::npos)
        << c.name << ": " << sim.status().ToString();
  }

  // No classes at all: nothing to draw from.
  Classification empty;
  empty.catalog = fx.cls.catalog;
  const Allocation none(fx.backends.size(), empty.catalog.size(), 0, 0);
  auto sim =
      ClusterSimulator::Create(empty, none, fx.backends, SimulationConfig{});
  ASSERT_FALSE(sim.ok());
  EXPECT_TRUE(sim.status().IsInvalidArgument()) << sim.status().ToString();
}

/// FNV-1a over every SimStats field, vectors included.
uint64_t StatsDigest(const SimStats& s) {
  uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  const auto scalar = [&add](const auto& v) { add(&v, sizeof(v)); };
  const auto vec = [&add](const auto& v) {
    add(v.data(), v.size() * sizeof(v[0]));
  };
  scalar(s.duration_seconds);
  scalar(s.completed_reads);
  scalar(s.completed_updates);
  scalar(s.failed_requests);
  scalar(s.rejected_requests);
  scalar(s.retried_requests);
  scalar(s.redispatched_requests);
  scalar(s.lag_tasks_drained);
  scalar(s.throughput);
  scalar(s.avg_response_seconds);
  scalar(s.max_response_seconds);
  scalar(s.p50_response_seconds);
  scalar(s.p95_response_seconds);
  scalar(s.p99_response_seconds);
  scalar(s.availability);
  vec(s.backend_busy_seconds);
  scalar(s.timeline_bin_seconds);
  vec(s.timeline_completions);
  vec(s.class_completions);
  return h;
}

// Pins whole runs on the simulate-synth shape (2,500 reads + 100 updates,
// greedy over 16 backends), so any change to a class draw shows: the
// digests are those of the reference subtractive scan, which every
// DiscreteSampler draw must equal.
class ScaleDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cls_ = testutil::GoldenInstance({1000, 16, 0.6, 7, 0});
    ASSERT_EQ(cls_.NumClasses(), 2600u);
    auto alloc = GreedyAllocator().Allocate(cls_, backends_);
    ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
    alloc_ = std::move(alloc).value();
    config_.seed = 3;
    config_.timeline_bin_seconds = 0.5;
    config_.track_class_mix = true;
  }

  SimStats Run(const SimulationConfig& config, bool closed) {
    auto sim = ClusterSimulator::Create(cls_, alloc_, backends_, config);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    if (!sim.ok()) return {};
    auto stats = closed ? sim->RunClosed(20000, 64) : sim->RunOpen(2.0, 4000.0);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return stats.ok() ? stats.value() : SimStats{};
  }

  Classification cls_;
  Allocation alloc_;
  std::vector<BackendSpec> backends_ = HomogeneousBackends(16);
  SimulationConfig config_;
};

TEST_F(ScaleDigestTest, ClosedRun) {
  const SimStats stats = Run(config_, true);
  EXPECT_EQ(stats.completed_total(), 20000u);
  EXPECT_EQ(StatsDigest(stats), 0x9283ab187b9e77a4ULL)
      << std::hex << "0x" << StatsDigest(stats);
}

TEST_F(ScaleDigestTest, OpenRun) {
  const SimStats stats = Run(config_, false);
  EXPECT_GT(stats.completed_total(), 7000u);
  EXPECT_EQ(StatsDigest(stats), 0x21177e8fee568fe7ULL)
      << std::hex << "0x" << StatsDigest(stats);
}

TEST_F(ScaleDigestTest, ClosedRunRetriesAcrossACrash) {
  SimulationConfig config = config_;
  config.fault_plan.Crash(1.0, 3).Recover(2.0, 3);
  const SimStats stats = Run(config, true);
  // Retries re-dispatch with the class drawn at first dispatch.
  EXPECT_GT(stats.retried_requests, 0u);
  EXPECT_EQ(StatsDigest(stats), 0x8ef871c5c470acc7ULL)
      << std::hex << "0x" << StatsDigest(stats);
}

TEST(SimStatsTest, BusyBalanceDeviation) {
  SimStats stats;
  stats.backend_busy_seconds = {10.0, 10.0};
  EXPECT_NEAR(stats.BusyBalanceDeviation({0.5, 0.5}), 0.0, 1e-12);
  stats.backend_busy_seconds = {20.0, 0.0};
  EXPECT_NEAR(stats.BusyBalanceDeviation({0.5, 0.5}), 1.0, 1e-12);
}

TEST(SimStatsTest, ToStringMentionsThroughput) {
  SimStats stats;
  stats.throughput = 123.4;
  EXPECT_NE(stats.ToString().find("123.4"), std::string::npos);
}

}  // namespace
}  // namespace qcap

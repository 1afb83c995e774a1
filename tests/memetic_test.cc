#include "alloc/memetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

#include "alloc/greedy.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/journal_synth.h"
#include "workloads/tpcapp.h"

namespace qcap {
namespace {

MemeticOptions FastOptions(uint64_t seed = 7) {
  MemeticOptions opts;
  opts.population_size = 9;
  opts.iterations = 12;
  opts.seed = seed;
  return opts;
}

TEST(MemeticTest, ProducesValidAllocation) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  MemeticAllocator memetic(FastOptions());
  auto result = memetic.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Status valid = ValidateAllocation(cls, result.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(MemeticTest, NeverWorseThanGreedy) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  GreedyAllocator greedy;
  auto greedy_alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(greedy_alloc.ok());
  const double greedy_scale = Scale(greedy_alloc.value(), backends);

  MemeticAllocator memetic(FastOptions());
  auto improved = memetic.Allocate(cls, backends);
  ASSERT_TRUE(improved.ok());
  EXPECT_LE(Scale(improved.value(), backends), greedy_scale + 1e-9);
}

TEST(MemeticTest, DeterministicForSeed) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(3);
  MemeticAllocator a(FastOptions(42)), b(FastOptions(42));
  auto ra = a.Allocate(cls, backends);
  auto rb = b.Allocate(cls, backends);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (size_t backend = 0; backend < 3; ++backend) {
    EXPECT_EQ(ra->BackendFragments(backend), rb->BackendFragments(backend));
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      EXPECT_DOUBLE_EQ(ra->read_assign(backend, r),
                       rb->read_assign(backend, r));
    }
  }
}

TEST(MemeticTest, ImproveAcceptsExternalSeed) {
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(2);
  GreedyAllocator greedy;
  auto seed_alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(seed_alloc.ok());
  MemeticAllocator memetic(FastOptions());
  auto improved = memetic.Improve(cls, backends, seed_alloc.value());
  ASSERT_TRUE(improved.ok());
  EXPECT_TRUE(ValidateAllocation(cls, improved.value(), backends).ok());
  // Figure 2 on two backends is already optimal: speedup stays 2.
  EXPECT_NEAR(Speedup(improved.value(), backends), 2.0, 1e-9);
}

TEST(MemeticTest, CanReduceReplicationOfPoorSeed) {
  // Seed with full replication; the memetic search should strictly reduce
  // stored bytes for the read-only Figure 2 workload at equal speedup.
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(2);
  Allocation full(2, 3, 4, 0);
  for (size_t b = 0; b < 2; ++b) full.PlaceSet(b, {0, 1, 2});
  full.set_read_assign(0, 0, 0.30);
  full.set_read_assign(0, 3, 0.20);
  full.set_read_assign(1, 1, 0.25);
  full.set_read_assign(1, 2, 0.25);

  MemeticOptions opts = FastOptions(3);
  opts.iterations = 30;
  MemeticAllocator memetic(opts);
  auto improved = memetic.Improve(cls, backends, full);
  ASSERT_TRUE(improved.ok());
  EXPECT_TRUE(ValidateAllocation(cls, improved.value(), backends).ok());
  EXPECT_NEAR(Speedup(improved.value(), backends), 2.0, 1e-9);
  EXPECT_LT(DegreeOfReplication(improved.value(), cls.catalog), 2.0 - 1e-9);
}

/// Exact equality of every matrix entry — the determinism contract is
/// bit-identical results, not "close".
void ExpectIdenticalAllocations(const Allocation& a, const Allocation& b,
                                const Classification& cls) {
  ASSERT_EQ(a.num_backends(), b.num_backends());
  for (size_t backend = 0; backend < a.num_backends(); ++backend) {
    EXPECT_EQ(a.BackendFragments(backend), b.BackendFragments(backend));
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      EXPECT_EQ(a.read_assign(backend, r), b.read_assign(backend, r))
          << "read class " << r << " on backend " << backend;
    }
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      EXPECT_EQ(a.update_assign(backend, u), b.update_assign(backend, u))
          << "update class " << u << " on backend " << backend;
    }
  }
}

TEST(MemeticTest, ThreadCountDoesNotChangeTheAllocation) {
  // Fixed {seed, num_islands}: islands only interact at the serial
  // migration barrier, so any thread count must give bit-identical results.
  const auto workload = workloads::MakeRandomWorkload(11);
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  const auto backends = HomogeneousBackends(4);

  MemeticOptions opts = FastOptions(5);
  opts.num_islands = 4;
  opts.migration_interval = 4;  // Several migration rounds in 12 iterations.
  opts.iterations = 12;

  opts.threads = 1;
  MemeticAllocator serial(opts);
  auto serial_result = serial.Allocate(cls.value(), backends);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();

  for (size_t threads : {2, 4}) {
    opts.threads = threads;
    MemeticAllocator parallel(opts);
    auto parallel_result = parallel.Allocate(cls.value(), backends);
    ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();
    ExpectIdenticalAllocations(serial_result.value(), parallel_result.value(),
                               cls.value());
  }
}

TEST(MemeticTest, ExternalPoolMatchesOwnedThreads) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  MemeticOptions opts = FastOptions(21);
  opts.num_islands = 3;
  opts.migration_interval = 5;

  opts.threads = 1;
  MemeticAllocator serial(opts);
  auto want = serial.Allocate(cls, backends);
  ASSERT_TRUE(want.ok());

  ThreadPool pool(4);
  opts.pool = &pool;
  MemeticAllocator pooled(opts);
  auto got = pooled.Allocate(cls, backends);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalAllocations(want.value(), got.value(), cls);
}

TEST(MemeticTest, SearchProgressIsPopulated) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  SearchProgress progress;
  MemeticOptions opts = FastOptions(3);
  opts.num_islands = 2;
  opts.migration_interval = 4;
  opts.threads = 2;
  opts.progress = &progress;
  MemeticAllocator memetic(opts);
  auto result = memetic.Allocate(cls, backends);
  ASSERT_TRUE(result.ok());

  // Every island runs every generation.
  EXPECT_EQ(progress.generations.load(), opts.iterations * opts.num_islands);
  EXPECT_GT(progress.evaluations.load(), progress.generations.load());
  // The best of the population always survives selection, local search only
  // improves, and migration only replaces worst members — so the best scale
  // ever evaluated is the returned allocation's scale.
  EXPECT_NEAR(progress.best_scale(), Scale(result.value(), backends), 1e-6);
  EXPECT_NE(progress.ToString().find("generations="), std::string::npos);
}

/// Threads of this process, from /proc/self/status (0 if unreadable).
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return ParseUint(Trim(line.substr(8))).value_or(0);
    }
  }
  return 0;
}

TEST(MemeticTest, PrivatePoolHasNoMoreWorkersThanIslands) {
  // Islands are the unit of parallelism, so asking for 8 threads on 2
  // islands must start 2 workers, not 8. A watcher counts the process's
  // threads while the search runs: a sample taken after the first
  // generation and before the last one falls inside the pool's lifetime.
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  auto cls = classifier.Classify(workloads::TpcAppJournal(50000));
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  SearchProgress progress;
  MemeticOptions opts;
  opts.num_islands = 2;
  opts.threads = 8;
  opts.iterations = 1000;
  opts.progress = &progress;
  const uint64_t last = opts.iterations * opts.num_islands;

  const size_t before = ProcessThreads();
  ASSERT_GT(before, 0u);
  std::atomic<bool> done{false};
  size_t peak = 0;
  bool sampled = false;
  std::thread watcher([&] {
    while (!done.load()) {
      if (progress.generations.load() == 0) {
        std::this_thread::yield();
        continue;
      }
      const size_t threads = ProcessThreads();
      if (progress.generations.load() < last) {
        peak = std::max(peak, threads);
        sampled = true;
      }
    }
  });
  auto result =
      MemeticAllocator(opts).Allocate(cls.value(), HomogeneousBackends(10));
  done.store(true);
  watcher.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(sampled) << "the search ended before the watcher sampled it";
  // The threads from before, the watcher, and one worker per island.
  EXPECT_LE(peak, before + 1 + opts.num_islands);
}

TEST(MemeticTest, GarbageCollectLeavesOnlyNeededFragments) {
  // Regression for the GarbageCollect rewrite: starting from a fully
  // replicated seed of the read-only Figure 2 workload, every surviving
  // placement must be needed by a read class with positive share on that
  // backend (no leftover replicas survive the rebuild).
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(2);
  Allocation full(2, 3, 4, 0);
  for (size_t b = 0; b < 2; ++b) full.PlaceSet(b, {0, 1, 2});
  full.set_read_assign(0, 0, 0.30);
  full.set_read_assign(0, 3, 0.20);
  full.set_read_assign(1, 1, 0.25);
  full.set_read_assign(1, 2, 0.25);

  MemeticOptions opts = FastOptions(17);
  opts.iterations = 25;
  MemeticAllocator memetic(opts);
  auto improved = memetic.Improve(cls, backends, full);
  ASSERT_TRUE(improved.ok());
  ASSERT_TRUE(ValidateAllocation(cls, improved.value(), backends).ok());
  for (size_t b = 0; b < 2; ++b) {
    FragmentSet needed;
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (improved->read_assign(b, r) > 1e-15) {
        needed = SetUnion(needed, cls.reads[r].fragments);
      }
    }
    EXPECT_EQ(improved->BackendFragments(b), needed) << "backend " << b;
  }
}

TEST(MemeticTest, ImproveRejectsSeedWithOtherFragmentCount) {
  // A seed allocated for 40 fragments must not be read as one over 60: its
  // placement rows are too short for the larger catalog.
  const Classification small = testutil::GoldenInstance({40, 4, 0.6, 1, 0});
  const Classification large = testutil::GoldenInstance({60, 4, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(4);
  auto seed_alloc = GreedyAllocator().Allocate(small, backends);
  ASSERT_TRUE(seed_alloc.ok()) << seed_alloc.status().ToString();
  auto result = MemeticAllocator(FastOptions()).Improve(large, backends,
                                                        seed_alloc.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

TEST(MemeticTest, ImproveRejectsSeedWithOtherBackendCount) {
  const Classification cls = testutil::AppendixAClassification();
  auto seed_alloc = GreedyAllocator().Allocate(cls, HomogeneousBackends(4));
  ASSERT_TRUE(seed_alloc.ok()) << seed_alloc.status().ToString();
  auto result = MemeticAllocator(FastOptions()).Improve(
      cls, HomogeneousBackends(5), seed_alloc.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

/// A greedy seed of a small synthetic instance with one zero read share set
/// to \p share. Returns that share's read class.
size_t SeedWithExtraShare(const Classification& cls,
                          const std::vector<BackendSpec>& backends,
                          double share, Allocation* seed) {
  auto greedy = GreedyAllocator().Allocate(cls, backends);
  EXPECT_TRUE(greedy.ok()) << greedy.status().ToString();
  *seed = greedy.value();
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    for (size_t b = 0; b < backends.size(); ++b) {
      if (seed->read_assign(b, r) == 0.0) {
        seed->set_read_assign(b, r, share);
        return r;
      }
    }
  }
  ADD_FAILURE() << "every read class has a share on every backend";
  return 0;
}

TEST(MemeticTest, ImproveRejectsSeedWithNegativeShare) {
  const Classification cls = testutil::GoldenInstance({40, 4, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(4);
  Allocation seed;
  const size_t r = SeedWithExtraShare(cls, backends, -0.3, &seed);
  auto result = MemeticAllocator(FastOptions()).Improve(cls, backends, seed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("negative assignment of " +
                                            cls.reads[r].label),
            std::string::npos)
      << result.status().ToString();
}

TEST(MemeticTest, ImproveRejectsSeedWithOverAssignedRead) {
  const Classification cls = testutil::GoldenInstance({40, 4, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(4);
  Allocation seed;
  const size_t r = SeedWithExtraShare(cls, backends, 5.0, &seed);
  auto result = MemeticAllocator(FastOptions()).Improve(cls, backends, seed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("read class " +
                                            cls.reads[r].label + " assigned"),
            std::string::npos)
      << result.status().ToString();
}

TEST(MemeticTest, ImproveRejectsSeedWithNaNShare) {
  const Classification cls = testutil::GoldenInstance({40, 4, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(4);
  Allocation seed;
  SeedWithExtraShare(cls, backends, std::nan(""), &seed);
  auto result = MemeticAllocator(FastOptions()).Improve(cls, backends, seed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

/// One pinned search: the allocation the memetic search returns, and how
/// many cost evaluations and accepted local-search moves it took to get
/// there. Any change to a mutation draw, a selection tie or a trial's
/// accept/reject decision shows up here.
struct TrajectoryGolden {
  uint64_t seed;
  uint64_t digest;
  uint64_t evaluations;
  uint64_t improvements;
};

void ExpectTrajectory(const Classification& cls,
                      const std::vector<BackendSpec>& backends,
                      MemeticOptions opts, const TrajectoryGolden& g) {
  for (size_t threads : {1, 3}) {
    SearchProgress progress;
    opts.threads = threads;
    opts.progress = &progress;
    auto result = MemeticAllocator(opts).Allocate(cls, backends);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
    EXPECT_EQ(testutil::AllocationDigest(result.value()), g.digest)
        << std::hex << "0x" << testutil::AllocationDigest(result.value())
        << std::dec << " for seed " << g.seed << " at " << threads
        << " threads";
    EXPECT_EQ(progress.evaluations.load(), g.evaluations)
        << "seed " << g.seed << " at " << threads << " threads";
    EXPECT_EQ(progress.improvements.load(), g.improvements)
        << "seed " << g.seed << " at " << threads << " threads";
    EXPECT_EQ(progress.generations.load(),
              opts.iterations * opts.num_islands);
  }
}

/// The advise-synth shape: 700 fragments, 1750 read and 70 update classes
/// (Zipf 0.6), 16 backends, 18 members in 4 islands, 30 generations.
TEST(MemeticTest, GoldenTrajectoriesSyntheticScale) {
  const TrajectoryGolden goldens[] = {
      {1, 0x7ae85e5f0bf0dafbULL, 5580, 240},
      {2, 0x11e17b3822cb36d5ULL, 3136, 240},
      {3, 0x31589f66fb846f4cULL, 5378, 240},
  };
  const auto backends = HomogeneousBackends(16);
  for (const TrajectoryGolden& g : goldens) {
    const Classification cls =
        testutil::GoldenInstance({700, 16, 0.6, g.seed, 0});
    MemeticOptions opts;
    opts.population_size = 18;
    opts.num_islands = 4;
    opts.iterations = 30;
    opts.seed = g.seed;
    ExpectTrajectory(cls, backends, opts, g);
  }
}

/// TPC-App at column granularity on 10 backends, default search options.
TEST(MemeticTest, GoldenTrajectoryTpcApp) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  auto cls = classifier.Classify(workloads::TpcAppJournal(50000));
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  ExpectTrajectory(cls.value(), HomogeneousBackends(10), MemeticOptions{},
                   {42, 0x6918e0fbdad9f5d7ULL, 5685, 221});
}

/// The advise-synth shape at 1,000 fragments: 2,500 read and 100 update
/// classes, 16 backends.
TEST(MemeticTest, GoldenTrajectoryThousandFragments) {
  const Classification cls = testutil::GoldenInstance({1000, 16, 0.6, 4, 0});
  MemeticOptions opts;
  opts.population_size = 18;
  opts.num_islands = 4;
  opts.iterations = 30;
  opts.seed = 4;
  ExpectTrajectory(cls, HomogeneousBackends(16), opts,
                   {4, 0xa63594317a82f712ULL, 11898, 240});
}

/// Fragments A, B, C; reads Q1 = {A} (0.6) and Q0 = {A, C} (weight 0);
/// updates U1 = {A, B} (weight 0) and U2 = {B} (0.4). No positive read
/// needs C, so every collection leaves it an orphan to re-place, and the
/// zero-weight classes never read as positive or pinned.
Classification OrphanAndZeroWeightClassification() {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 2.0).ok());
  EXPECT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 3.0).ok());
  cls.reads = {
      QueryClass{{0}, 0.6, 1.0, false, "Q1", {}},
      QueryClass{{0, 2}, 0.0, 1.0, false, "Q0", {}},
  };
  cls.updates = {
      QueryClass{{0, 1}, 0.0, 1.0, true, "U1", {}},
      QueryClass{{1}, 0.4, 1.0, true, "U2", {}},
  };
  EXPECT_TRUE(cls.Validate().ok());
  return cls;
}

TEST(MemeticTest, GoldenTrajectoryOrphanAndZeroWeights) {
  const Classification cls = OrphanAndZeroWeightClassification();
  const auto backends = HomogeneousBackends(3);
  MemeticOptions opts = FastOptions(9);
  opts.num_islands = 3;
  opts.migration_interval = 4;
  ExpectTrajectory(cls, backends, opts, {9, 0x23937734e7bc73e5ULL, 183, 0});
  auto result = MemeticAllocator(opts).Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->ReplicaCount(2), 1u);  // C survives as an orphan.
}

class MemeticPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemeticPropertySweep, ValidAndNotWorseOnRandomWorkloads) {
  const auto workload = workloads::MakeRandomWorkload(GetParam());
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  const auto backends = HomogeneousBackends(4);

  GreedyAllocator greedy;
  auto base = greedy.Allocate(cls.value(), backends);
  ASSERT_TRUE(base.ok());

  MemeticAllocator memetic(FastOptions(GetParam()));
  auto improved = memetic.Improve(cls.value(), backends, base.value());
  ASSERT_TRUE(improved.ok()) << improved.status().ToString();
  Status valid = ValidateAllocation(cls.value(), improved.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_LE(Scale(improved.value(), backends),
            Scale(base.value(), backends) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemeticPropertySweep,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace qcap

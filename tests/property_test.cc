// Cross-allocator property sweeps on random workloads: every strategy must
// produce valid allocations whose metrics respect the analytical bounds.
#include <gtest/gtest.h>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "alloc/memetic.h"
#include "alloc/random_allocator.h"
#include "common/random.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "workload/classifier.h"
#include "workloads/journal_synth.h"

namespace qcap {
namespace {

struct Instance {
  Classification cls;
  std::vector<BackendSpec> backends;
};

Instance MakeInstance(uint64_t seed, size_t nodes, Granularity granularity) {
  const auto workload = workloads::MakeRandomWorkload(seed);
  Classifier classifier(workload.catalog, {granularity, 4, true});
  auto cls = classifier.Classify(workload.journal);
  EXPECT_TRUE(cls.ok()) << cls.status().ToString();
  return Instance{std::move(cls).value(), HomogeneousBackends(nodes)};
}

void CheckInvariants(const Instance& inst, const Allocation& alloc,
                     const std::string& context) {
  Status valid = ValidateAllocation(inst.cls, alloc, inst.backends);
  ASSERT_TRUE(valid.ok()) << context << ": " << valid.ToString();

  const double scale = Scale(alloc, inst.backends);
  EXPECT_GE(scale, 1.0 - 1e-9) << context;

  const double speedup = Speedup(alloc, inst.backends);
  EXPECT_LE(speedup, static_cast<double>(inst.backends.size()) + 1e-9)
      << context;
  EXPECT_LE(speedup, TheoreticalMaxSpeedup(inst.cls) + 1e-6) << context;

  const double r = DegreeOfReplication(alloc, inst.cls.catalog);
  EXPECT_GE(r, 1.0 - 1e-9) << context;  // Complete data at least once.
  EXPECT_LE(r, static_cast<double>(inst.backends.size()) + 1e-9) << context;

  EXPECT_GE(BalanceDeviation(alloc, inst.backends), 0.0) << context;

  // Histogram accounts for every fragment.
  size_t total = 0;
  for (size_t count : ReplicationHistogram(alloc)) total += count;
  EXPECT_EQ(total, inst.cls.catalog.size()) << context;
}

class AllocatorPropertySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(AllocatorPropertySweep, AllStrategiesSatisfyInvariants) {
  const auto [seed, nodes] = GetParam();
  for (Granularity g : {Granularity::kTable, Granularity::kColumn}) {
    const Instance inst = MakeInstance(seed, nodes, g);

    FullReplicationAllocator full;
    auto fa = full.Allocate(inst.cls, inst.backends);
    ASSERT_TRUE(fa.ok()) << fa.status().ToString();
    CheckInvariants(inst, fa.value(), "full");
    EXPECT_NEAR(DegreeOfReplication(fa.value(), inst.cls.catalog),
                static_cast<double>(nodes), 1e-9);

    GreedyAllocator greedy;
    auto ga = greedy.Allocate(inst.cls, inst.backends);
    ASSERT_TRUE(ga.ok()) << ga.status().ToString();
    CheckInvariants(inst, ga.value(), "greedy");

    RandomAllocator random(seed * 31 + nodes);
    auto ra = random.Allocate(inst.cls, inst.backends);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    CheckInvariants(inst, ra.value(), "random");

    // Greedy never stores more than full replication.
    EXPECT_LE(DegreeOfReplication(ga.value(), inst.cls.catalog),
              DegreeOfReplication(fa.value(), inst.cls.catalog) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, AllocatorPropertySweep,
    ::testing::Combine(::testing::Range<uint64_t>(1, 16),
                       ::testing::Values<size_t>(2, 5, 9)));

class UpdateHeavySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateHeavySweep, UpdateHeavyWorkloadsStayValid) {
  workloads::RandomWorkloadOptions options;
  options.num_read_templates = 4;
  options.num_update_templates = 8;  // Update-heavy.
  const auto workload = workloads::MakeRandomWorkload(GetParam(), options);
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  const Instance inst{std::move(cls).value(), HomogeneousBackends(4)};

  GreedyAllocator greedy;
  auto ga = greedy.Allocate(inst.cls, inst.backends);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  CheckInvariants(inst, ga.value(), "greedy-update-heavy");

  MemeticOptions mopts;
  mopts.population_size = 6;
  mopts.iterations = 6;
  mopts.seed = GetParam();
  MemeticAllocator memetic(mopts);
  auto ma = memetic.Improve(inst.cls, inst.backends, ga.value());
  ASSERT_TRUE(ma.ok()) << ma.status().ToString();
  CheckInvariants(inst, ma.value(), "memetic-update-heavy");
  EXPECT_LE(Scale(ma.value(), inst.backends),
            Scale(ga.value(), inst.backends) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateHeavySweep,
                         ::testing::Range<uint64_t>(1, 9));

class HeterogeneousSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeterogeneousSweep, HeterogeneousBackendsStayValid) {
  const auto workload = workloads::MakeRandomWorkload(GetParam());
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  auto backends = HeterogeneousBackends({4.0, 3.0, 2.0, 1.0});
  ASSERT_TRUE(backends.ok());
  const Instance inst{std::move(cls).value(), backends.value()};

  GreedyAllocator greedy;
  auto ga = greedy.Allocate(inst.cls, inst.backends);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  CheckInvariants(inst, ga.value(), "greedy-heterogeneous");
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeterogeneousSweep,
                         ::testing::Range<uint64_t>(1, 9));

// The Allocation's running aggregates (assigned loads, stored bytes, replica
// counts) are maintained incrementally by every mutator. After an arbitrary
// mutation sequence they must agree with a from-scratch recompute to within
// fp-drift tolerance (1e-9), and counts must match exactly.
class IncrementalAggregateSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalAggregateSweep, AggregatesMatchFromScratchRecompute) {
  const auto workload = workloads::MakeRandomWorkload(GetParam());
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls_or = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls_or.ok());
  const Classification cls = std::move(cls_or).value();
  const ClassificationIndex index(cls);
  const size_t n = 5;
  const size_t R = cls.reads.size();
  const size_t U = cls.updates.size();
  Allocation alloc(n, cls.catalog, R, U);

  Rng rng(GetParam() * 977 + 11);
  DenseBitset bits(cls.catalog.size());
  for (size_t step = 0; step < 400; ++step) {
    const size_t b = rng.NextBounded(n);
    switch (rng.NextBounded(7)) {
      case 0:
        alloc.Place(b, static_cast<FragmentId>(
                           rng.NextBounded(cls.catalog.size())));
        break;
      case 1:
        if (R > 0) alloc.PlaceBits(b, index.read_bits(rng.NextBounded(R)));
        break;
      case 2:
        if (U > 0) {
          alloc.PlaceSet(b, cls.updates[rng.NextBounded(U)].fragments);
        }
        break;
      case 3:
        if (R > 0) {
          alloc.set_read_assign(b, rng.NextBounded(R),
                                rng.NextDouble(0.0, 0.3));
        }
        break;
      case 4:
        if (R > 0) {
          alloc.add_read_assign(b, rng.NextBounded(R),
                                rng.NextDouble(-0.05, 0.1));
        }
        if (U > 0) {
          alloc.set_update_assign(b, rng.NextBounded(U),
                                  rng.NextDouble(0.0, 0.2));
        }
        break;
      case 5:
        if (R > 0) {
          bits.ClearAll();
          for (uint32_t f : index.read_closure_fragment_ids(rng.NextBounded(R))) {
            bits.Set(f);
          }
          alloc.RetainFragments(b, bits);
        }
        break;
      case 6:
        if (rng.NextBernoulli(0.25)) {
          alloc.ClearBackendRow(b);
        } else if (R > 0) {
          alloc.PlaceBits(b, index.read_bundle_bits(rng.NextBounded(R)));
        }
        break;
    }
  }

  std::vector<size_t> replicas(cls.catalog.size(), 0);
  for (size_t b = 0; b < n; ++b) {
    double read_load = 0.0, update_load = 0.0;
    for (size_t r = 0; r < R; ++r) read_load += alloc.read_assign(b, r);
    for (size_t u = 0; u < U; ++u) update_load += alloc.update_assign(b, u);
    const double bytes = cls.catalog.SetBytes(alloc.BackendFragments(b));
    EXPECT_NEAR(alloc.AssignedReadLoad(b), read_load, 1e-9) << "backend " << b;
    EXPECT_NEAR(alloc.AssignedUpdateLoad(b), update_load, 1e-9)
        << "backend " << b;
    EXPECT_NEAR(alloc.AssignedLoad(b), read_load + update_load, 1e-9)
        << "backend " << b;
    EXPECT_NEAR(alloc.BackendBytes(b, cls.catalog), bytes, 1e-9)
        << "backend " << b;
    for (FragmentId f = 0; f < cls.catalog.size(); ++f) {
      if (alloc.IsPlaced(b, f)) ++replicas[f];
    }
  }
  for (FragmentId f = 0; f < cls.catalog.size(); ++f) {
    EXPECT_EQ(alloc.ReplicaCount(f), replicas[f]) << "fragment " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAggregateSweep,
                         ::testing::Range<uint64_t>(1, 13));

// Regression for the delta-evaluation rewrite of the memetic search: a fixed
// {seed, num_islands} must yield the identical winner at every thread count.
class MemeticThreadDeterminismSweep
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemeticThreadDeterminismSweep, IdenticalWinnerAcrossThreadCounts) {
  const Instance inst = MakeInstance(GetParam(), 4, Granularity::kTable);
  GreedyAllocator greedy;
  auto seed_alloc = greedy.Allocate(inst.cls, inst.backends);
  ASSERT_TRUE(seed_alloc.ok());

  auto run = [&](size_t threads) {
    MemeticOptions opts;
    opts.population_size = 9;
    opts.iterations = 8;
    opts.num_islands = 3;
    opts.migration_interval = 3;
    opts.seed = GetParam() * 131;
    opts.threads = threads;
    MemeticAllocator memetic(opts);
    auto result = memetic.Improve(inst.cls, inst.backends, seed_alloc.value());
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };

  const Allocation base = run(1);
  for (size_t threads : {2, 4}) {
    const Allocation other = run(threads);
    for (size_t b = 0; b < base.num_backends(); ++b) {
      for (FragmentId f = 0; f < base.num_fragments(); ++f) {
        ASSERT_EQ(base.IsPlaced(b, f), other.IsPlaced(b, f))
            << "threads=" << threads << " b=" << b << " f=" << f;
      }
      for (size_t r = 0; r < base.num_reads(); ++r) {
        ASSERT_EQ(base.read_assign(b, r), other.read_assign(b, r))
            << "threads=" << threads;
      }
      for (size_t u = 0; u < base.num_updates(); ++u) {
        ASSERT_EQ(base.update_assign(b, u), other.update_assign(b, u))
            << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemeticThreadDeterminismSweep,
                         ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace qcap

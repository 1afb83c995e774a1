// The memetic search in steady state (docs/ARCHITECTURE.md, "Allocation-search
// hot path"): every member buffer (offspring slots, the first generation's
// growth slots, the trial mirror, the emigrant) is sized from the seed
// before the first generation, so no generation makes a heap allocation,
// the first included. Mutation writes into recycled offspring, local-search
// trials edit a mirror and restore only the cells and rows they touched,
// and selection swaps members instead of rebuilding the population. So a
// search's allocation count must not depend on how many generations it
// runs.
//
// The binary replaces the global operator new with a counting one
// (counting_new.h), so these tests live apart from memetic_test.
#include "alloc/memetic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/greedy.h"
#include "counting_new.h"
#include "test_util.h"

namespace qcap {
namespace {

/// Heap allocations made by one serial, migration-free Improve() call of
/// \p generations generations.
uint64_t ImproveAllocations(const Classification& cls,
                            const std::vector<BackendSpec>& backends,
                            const Allocation& seed, size_t islands,
                            size_t generations) {
  MemeticOptions opts;
  opts.population_size = 18;
  opts.num_islands = islands;
  opts.iterations = generations;
  opts.migration_interval = 0;
  opts.threads = 1;
  opts.pool = nullptr;
  MemeticAllocator memetic(opts);
  const uint64_t before = testutil::heap_allocations.load();
  auto result = memetic.Improve(cls, backends, seed);
  const uint64_t allocations = testutil::heap_allocations.load() - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return allocations;
}

/// At 120 fragments member copies take the stale rows only; at 40 a
/// backend row is small enough that they copy every buffer whole.
TEST(MemeticHotPathTest, GenerationsAllocateNothing) {
  for (const size_t fragments : {120, 40}) {
    const Classification cls =
        testutil::GoldenInstance({fragments, 8, 0.6, 1, 0});
    const auto backends = HomogeneousBackends(8);
    auto seed = GreedyAllocator().Allocate(cls, backends);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    for (const size_t islands : {1, 4}) {
      const uint64_t at1 =
          ImproveAllocations(cls, backends, seed.value(), islands, 1);
      const uint64_t at60 =
          ImproveAllocations(cls, backends, seed.value(), islands, 60);
      EXPECT_GT(at1, 0u);
      EXPECT_EQ(at1, at60) << fragments << " fragments, " << islands
                           << " islands";
    }
  }
}

}  // namespace
}  // namespace qcap

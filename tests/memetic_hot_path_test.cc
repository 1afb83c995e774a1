// The memetic search in steady state (docs/ARCHITECTURE.md, "Allocation-search
// hot path"): once every island's population and offspring slots hold
// buffers, a generation makes no heap allocation. Mutation writes into
// recycled offspring, local-search trials edit a mirror and restore only the
// rows they touched, and selection swaps members instead of rebuilding the
// population. So a search's allocation count must not depend on how many
// generations it runs.
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

TEST(MemeticHotPathTest, GenerationsPastTheFirstAllocateNothing) {
  const Classification cls = testutil::GoldenInstance({120, 8, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(8);
  auto seed = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  for (const size_t islands : {1, 4}) {
    const uint64_t at30 =
        ImproveAllocations(cls, backends, seed.value(), islands, 30);
    const uint64_t at60 =
        ImproveAllocations(cls, backends, seed.value(), islands, 60);
    EXPECT_GT(at30, 0u);
    EXPECT_EQ(at30, at60) << islands << " islands";
  }
}

}  // namespace
}  // namespace qcap

// Memetic (evolutionary + local search) allocation improvement
// (Algorithm 2, local searches Eq. 21-26), parallelized as an island model.
//
// Starts from the greedy solution and evolves `num_islands` independent
// subpopulations. Each island mutates read assignments (update placement is
// re-derived per ROWA), keeps the best 2/3 of parents and 1/3 of offspring
// each generation, and locally improves a random third of its population
// with the paper's two improvement moves. Every `migration_interval`
// generations the islands synchronize and each island's best solution
// migrates to its ring neighbour, replacing the neighbour's worst member.
//
// Determinism contract: island i draws from its own RNG seeded with
// `seed + i`, each island evolves serially on whichever thread runs it, and
// islands only interact at the (serial) migration barrier — so for a fixed
// {seed, num_islands, population_size, iterations, migration_interval} the
// result is bit-identical at every thread count, including threads == 1.
#pragma once

#include <cstdint>

#include "alloc/allocator.h"

namespace qcap {

class ThreadPool;       // common/thread_pool.h
struct SearchProgress;  // common/stats.h

/// Tuning knobs for the memetic allocator.
struct MemeticOptions {
  /// Total population p across all islands (a multiple of 3 *per island*
  /// keeps the paper's 2/3 + 1/3 selection ratios exact). Each island
  /// evolves max(3, population_size / num_islands) members.
  size_t population_size = 18;
  /// Generations evolved by every island.
  size_t iterations = 60;
  /// Mutation RNG seed; island i uses `seed + i`.
  uint64_t seed = 42;

  // --- Island-model parallelism ---

  /// Independent subpopulations. 1 recovers the classic single-population
  /// evolver; more islands diversify the search and are the unit of
  /// parallel execution.
  size_t num_islands = 4;
  /// Generations between migration barriers. Migration copies each
  /// island's best member to its ring successor. 0 disables migration.
  size_t migration_interval = 15;
  /// Worker threads for the search. Islands are the unit of parallelism:
  /// they evolve concurrently, each one serially, so the private pool gets
  /// at most num_islands workers. 1 = fully serial,
  /// 0 = ThreadPool::DefaultThreads(). Ignored when \ref pool is set.
  /// The allocation returned does not depend on this value.
  size_t threads = 1;
  /// External pool to run on instead of spawning a private one. The caller
  /// keeps ownership; the pool must outlive the Allocate()/Improve() call.
  ThreadPool* pool = nullptr;
  /// Optional live progress counters, updated during the search (the
  /// caller may poll from another thread). Not owned.
  SearchProgress* progress = nullptr;
};

/// \brief Algorithm 2: evolutionary programming over allocations with local
/// improvement (a hybrid/memetic heuristic), run as a parallel island model.
///
/// Paper mapping: mutation + (λ+µ) selection implement Algorithm 2's
/// evolutionary loop; the two local searches implement Eq. 21/22
/// (consolidating read classes split across backend pairs) and Eq. 23-26
/// (evacuating reads that pin heavy update replicas). The island
/// decomposition is an implementation choice for multicore hardware; with
/// num_islands = 1 it degenerates to the paper's serial algorithm.
class MemeticAllocator : public Allocator {
 public:
  explicit MemeticAllocator(MemeticOptions options = {}) : options_(options) {}

  /// Runs greedy (Algorithm 1) for the initial solution, then improves it.
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override;
  std::string name() const override { return "memetic"; }

  /// Improves an existing \p seed_allocation instead of starting from
  /// greedy. Used by benches to ablate greedy vs. memetic quality.
  Result<Allocation> Improve(const Classification& cls,
                             const std::vector<BackendSpec>& backends,
                             const Allocation& seed_allocation);

 private:
  MemeticOptions options_;
};

}  // namespace qcap

#include "alloc/memetic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "alloc/greedy.h"
#include "alloc/search_kernel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "model/metrics.h"

namespace qcap {

namespace {

using alloc_internal::SearchKernel;
using alloc_internal::SolutionCost;

/// Maximum local-search sweeps per LocalImprove() call.
constexpr size_t kImprovePasses = 2;

struct Member {
  Allocation alloc;
  SolutionCost cost;
};

/// One island: an independent subpopulation with its own RNG stream
/// (`opts.seed + island_id`). All mutation/selection state is confined to
/// the island, so islands can evolve on different pool workers without
/// synchronization; they interact only at the serial migration barrier run
/// by the coordinator between epochs. Each island owns a SearchKernel (and
/// therefore its own scratch buffers) over the shared read-only
/// ClassificationIndex.
class Evolver {
 public:
  Evolver(const Classification& cls, const ClassificationIndex& index,
          const std::vector<BackendSpec>& backends, const MemeticOptions& opts,
          uint64_t island_id)
      : cls_(cls),
        index_(index),
        opts_(opts),
        kernel_(cls, index, backends, opts.progress),
        rng_(opts.seed + island_id) {
    collect_scratch_.resize(cls.reads.size());
  }

  SolutionCost Evaluate(const Allocation& a) const { return kernel_.Evaluate(a); }

  /// Drops every fragment a backend no longer needs for its assigned read
  /// classes (and the update classes forced by what remains), then restores
  /// global data completeness. Edits rows in place via the precomputed
  /// per-read update closures; no allocation rebuild, no O(U²) fixpoint.
  void GarbageCollect(Allocation* a) { kernel_.GarbageCollect(a); }

  // Mutation and the two local-search strategies are the per-trial inner
  // loops of the memetic search. Trials reuse the island's scratch vectors
  // and trial_ allocation; the only allocation is the returned child.
  // qcap-lint: hot-path begin

  Allocation Mutate(const Allocation& parent) {
    Allocation child = parent;
    // Move one random (class, backend) read share to another backend.
    // Candidates are found by a SIMD scan of each backend's contiguous
    // assignment row (b-major), then restored to the r-major, b-ascending
    // sequence of the original nested loop with a stable counting sort by
    // read class — the RNG draw below indexes this list, so its order is
    // part of the deterministic trace.
    const size_t R = cls_.reads.size();
    bmajor_.clear();  // (read class, backend), b-major.
    for (size_t b = 0; b < child.num_backends(); ++b) {
      const std::span<const double> row = child.ReadAssignRow(b);
      const size_t n =
          simd::CollectAbove(row.data(), R, 1e-12, collect_scratch_.data());
      for (size_t i = 0; i < n; ++i) {
        // qcap-lint: allow(hot-path-growth) -- bmajor_ reaches steady-state capacity after the first scan and is reused across trials
        bmajor_.emplace_back(collect_scratch_[i], b);
      }
    }
    count_scratch_.assign(R + 1, 0);
    for (const auto& [r, b] : bmajor_) ++count_scratch_[r + 1];
    for (size_t r = 0; r < R; ++r) count_scratch_[r + 1] += count_scratch_[r];
    // qcap-lint: allow(hot-path-growth) -- same steady-state capacity as bmajor_; no growth after the first scan
    positive_.resize(bmajor_.size());  // (read class, backend), r-major.
    for (const auto& [r, b] : bmajor_) positive_[count_scratch_[r]++] = {r, b};
    if (positive_.empty() || child.num_backends() < 2) return child;
    const auto [r, b1] = positive_[rng_.NextBounded(positive_.size())];
    size_t b2 = static_cast<size_t>(rng_.NextBounded(child.num_backends() - 1));
    if (b2 >= b1) ++b2;
    const double have = child.read_assign(b1, r);
    const double share =
        rng_.NextBernoulli(0.5) ? have : have * rng_.NextDouble(0.25, 1.0);
    child.add_read_assign(b1, r, -share);
    child.add_read_assign(b2, r, share);
    child.PlaceBits(b2, index_.read_bits(r));
    kernel_.CloseUpdates(&child, b2);
    // The parent is garbage-collected (population invariant), so only the
    // two modified rows can hold junk.
    const size_t touched[2] = {b1, b2};
    kernel_.GarbageCollectBackends(&child, touched, 2, &touched_);
    return child;
  }

  /// Local search strategy 1 (Eq. 21/22): consolidate pairs of read classes
  /// that are split across the same two backends but drag different update
  /// sets, freeing update replicas. The `before` cost is computed lazily,
  /// only once a candidate pair actually exists; each trial reuses the
  /// scratch allocation and is scored via the O(|touched|) delta form.
  bool ImproveSharedPairs(Allocation* a) {
    bool have_before = false;
    SolutionCost before;
    for (size_t b1 = 0; b1 < a->num_backends(); ++b1) {
      for (size_t b2 = b1 + 1; b2 < a->num_backends(); ++b2) {
        // One SIMD pass over the two contiguous rows: ascending reads with
        // a positive share on both backends (same strict > pair as before).
        const size_t num_shared = simd::CollectBothAbove(
            a->ReadAssignRow(b1).data(), a->ReadAssignRow(b2).data(),
            cls_.reads.size(), 1e-12, collect_scratch_.data());
        if (num_shared < 2) continue;
        // qcap-lint: allow(hot-path-growth) -- shared_ is cleared scratch bounded by |reads|; capacity is reused
        shared_.assign(collect_scratch_.begin(),
                       collect_scratch_.begin() + num_shared);
        for (size_t i = 0; i < shared_.size(); ++i) {
          for (size_t j = 0; j < shared_.size(); ++j) {
            if (i == j) continue;
            const size_t r1 = shared_[i], r2 = shared_[j];
            const auto upd1 = index_.read_overlapping_updates(r1);
            const auto upd2 = index_.read_overlapping_updates(r2);
            if (upd1.size() == upd2.size() &&
                std::equal(upd1.begin(), upd1.end(), upd2.begin())) {
              continue;
            }
            const double delta =
                std::min(a->read_assign(b2, r1), a->read_assign(b1, r2));
            if (delta <= 1e-12) continue;
            if (!have_before) {
              before = kernel_.Evaluate(*a);
              kernel_.BeginDelta(*a, before);
              have_before = true;
            }
            trial_ = *a;
            trial_.add_read_assign(b2, r1, -delta);
            trial_.add_read_assign(b1, r1, delta);
            trial_.add_read_assign(b1, r2, -delta);
            trial_.add_read_assign(b2, r2, delta);
            const size_t touched[2] = {b1, b2};
            kernel_.GarbageCollectBackends(&trial_, touched, 2, &touched_);
            if (kernel_.EvaluateDelta(trial_, touched_).Better(before)) {
              *a = trial_;
              RecordImprovement();
              return true;
            }
          }
        }
      }
    }
    return false;
  }

  /// Local search strategy 2 (Eq. 23-26): evacuate the read load that pins a
  /// replicated (heavy) update class on one backend over to another backend
  /// already carrying the class, trading lighter replication for it.
  bool ImproveUpdateReplicas(Allocation* a) {
    bool have_before = false;
    SolutionCost before;
    for (size_t u = 0; u < cls_.updates.size(); ++u) {
      holders_.clear();
      for (size_t b = 0; b < a->num_backends(); ++b) {
        // qcap-lint: allow(hot-path-growth) -- holders_ is cleared scratch bounded by num_backends; capacity is reused
        if (a->update_assign(b, u) > 1e-12) holders_.push_back(b);
      }
      if (holders_.size() < 2) continue;
      for (size_t b1 : holders_) {
        for (size_t b2 : holders_) {
          if (b1 == b2) continue;
          if (!have_before) {
            before = kernel_.Evaluate(*a);
            kernel_.BeginDelta(*a, before);
            have_before = true;
          }
          trial_ = *a;
          bool moved = false;
          for (size_t r = 0; r < cls_.reads.size(); ++r) {
            if (trial_.read_assign(b1, r) <= 1e-12) continue;
            if (!Intersects(index_.read_bits(r), index_.update_bits(u))) {
              continue;
            }
            const double w = trial_.read_assign(b1, r);
            trial_.add_read_assign(b1, r, -w);
            trial_.add_read_assign(b2, r, w);
            trial_.PlaceBits(b2, index_.read_bits(r));
            kernel_.CloseUpdates(&trial_, b2);
            moved = true;
          }
          if (!moved) continue;
          const size_t touched[2] = {b1, b2};
          kernel_.GarbageCollectBackends(&trial_, touched, 2, &touched_);
          if (kernel_.EvaluateDelta(trial_, touched_).Better(before)) {
            *a = trial_;
            RecordImprovement();
            return true;
          }
        }
      }
    }
    return false;
  }

  // qcap-lint: hot-path end

  void LocalImprove(Allocation* a) {
    for (size_t pass = 0; pass < kImprovePasses; ++pass) {
      const bool improved = ImproveSharedPairs(a) || ImproveUpdateReplicas(a);
      if (!improved) break;
    }
  }

  /// Evolves the island's population for \p generations. Mutation and
  /// selection draw from the island RNG on the calling thread; only the
  /// (pure) offspring evaluations fan out over \p pool, writing each cost
  /// to its own slot, so the outcome is independent of the thread count.
  void EvolveGenerations(std::vector<Member>* population, size_t generations,
                         size_t island_population, ThreadPool* pool) {
    const size_t p = std::max<size_t>(3, island_population);
    for (size_t iter = 0; iter < generations; ++iter) {
      // Offspring: p mutations of random parents (serial: RNG), then a
      // parallel evaluation of the batch.
      std::vector<Allocation> kids;
      kids.reserve(p);
      for (size_t i = 0; i < p; ++i) {
        const Member& parent =
            (*population)[rng_.NextBounded(population->size())];
        kids.push_back(Mutate(parent.alloc));
      }
      std::vector<SolutionCost> costs(p);
      ParallelFor(pool, p,
                  [&](size_t i) { costs[i] = Evaluate(kids[i]); });
      std::vector<Member> offspring;
      offspring.reserve(p);
      for (size_t i = 0; i < p; ++i) {
        offspring.push_back(Member{std::move(kids[i]), costs[i]});
      }
      // (λ+µ) selection: best 2/3 of parents + best 1/3 of offspring.
      // Selection only consumes the kept prefix, so a partial sort to that
      // prefix replaces the two full sorts.
      auto by_cost = [](const Member& x, const Member& y) {
        return x.cost.Better(y.cost);
      };
      const size_t keep_parents = std::min(population->size(), 2 * p / 3);
      const size_t keep_children = std::min(offspring.size(), p - keep_parents);
      std::partial_sort(population->begin(),
                        population->begin() + keep_parents, population->end(),
                        by_cost);
      std::partial_sort(offspring.begin(), offspring.begin() + keep_children,
                        offspring.end(), by_cost);
      std::vector<Member> next;
      next.reserve(keep_parents + keep_children);
      for (size_t i = 0; i < keep_parents; ++i) {
        next.push_back(std::move((*population)[i]));
      }
      for (size_t i = 0; i < keep_children; ++i) {
        next.push_back(std::move(offspring[i]));
      }
      *population = std::move(next);
      // Memetic step: locally improve a random third of the population.
      const size_t improve_count = std::max<size_t>(1, population->size() / 3);
      for (size_t i = 0; i < improve_count; ++i) {
        Member& m = (*population)[rng_.NextBounded(population->size())];
        LocalImprove(&m.alloc);
        m.cost = Evaluate(m.alloc);
      }
      if (opts_.progress != nullptr) {
        opts_.progress->generations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

 private:
  void RecordImprovement() const {
    if (opts_.progress != nullptr) {
      opts_.progress->improvements.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const Classification& cls_;
  const ClassificationIndex& index_;
  const MemeticOptions& opts_;
  SearchKernel kernel_;
  Rng rng_;

  // Reused scratch: candidate lists and the trial allocation. Copy-assigning
  // into trial_ reuses its buffers, so rejected trials cost no allocation.
  std::vector<std::pair<size_t, size_t>> positive_;
  std::vector<std::pair<size_t, size_t>> bmajor_;
  std::vector<uint32_t> collect_scratch_;  // CollectAbove output, |reads|.
  std::vector<size_t> count_scratch_;      // Counting-sort offsets, |reads|+1.
  std::vector<size_t> shared_;
  std::vector<size_t> holders_;
  std::vector<size_t> touched_;
  Allocation trial_;
};

/// Coordinates the islands: epochs of independent evolution (parallel over
/// the pool) separated by serial ring migrations of each island's best
/// member. All cross-island decisions happen here, on one thread, from
/// fully evolved island states — thread count never changes the result.
class IslandModel {
 public:
  IslandModel(const Classification& cls, const ClassificationIndex& index,
              const std::vector<BackendSpec>& backends,
              const MemeticOptions& opts)
      : opts_(opts) {
    const size_t n = std::max<size_t>(1, opts.num_islands);
    island_population_ =
        std::max<size_t>(3, opts.population_size / n);
    evolvers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      evolvers_.push_back(std::make_unique<Evolver>(cls, index, backends, opts,
                                                    /*island_id=*/i));
    }
    populations_.resize(n);
  }

  Allocation Run(const Allocation& seed, ThreadPool* pool) {
    const size_t n = evolvers_.size();
    for (size_t i = 0; i < n; ++i) {
      populations_[i].push_back(
          Member{seed, evolvers_[i]->Evaluate(seed)});
    }
    const size_t epoch = opts_.migration_interval == 0
                             ? opts_.iterations
                             : opts_.migration_interval;
    size_t remaining = opts_.iterations;
    while (remaining > 0) {
      const size_t generations = std::min(epoch == 0 ? remaining : epoch,
                                          remaining);
      ParallelFor(pool, n, [&](size_t i) {
        evolvers_[i]->EvolveGenerations(&populations_[i], generations,
                                        island_population_, pool);
      });
      remaining -= generations;
      if (remaining > 0 && n > 1) Migrate();
    }
    // Winner: scan islands in id order; strict Better keeps ties stable.
    const Member* best = nullptr;
    for (const auto& population : populations_) {
      for (const Member& member : population) {
        if (best == nullptr || member.cost.Better(best->cost)) {
          best = &member;
        }
      }
    }
    return best->alloc;
  }

 private:
  static bool ByCost(const Member& x, const Member& y) {
    return x.cost.Better(y.cost);
  }

  /// Ring migration: island i's best member immigrates into island
  /// (i+1) % n, replacing that island's worst member if it improves on it.
  /// Emigrants are snapshotted first so the outcome is order-independent.
  void Migrate() {
    const size_t n = populations_.size();
    std::vector<Member> emigrants;
    emigrants.reserve(n);
    for (const auto& population : populations_) {
      emigrants.push_back(
          *std::min_element(population.begin(), population.end(), ByCost));
    }
    for (size_t i = 0; i < n; ++i) {
      auto& target = populations_[(i + 1) % n];
      auto worst = std::max_element(target.begin(), target.end(), ByCost);
      if (emigrants[i].cost.Better(worst->cost)) {
        *worst = emigrants[i];
        if (opts_.progress != nullptr) {
          opts_.progress->migrations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  const MemeticOptions& opts_;
  size_t island_population_ = 3;
  std::vector<std::unique_ptr<Evolver>> evolvers_;
  std::vector<std::vector<Member>> populations_;
};

}  // namespace

Result<Allocation> MemeticAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  GreedyAllocator greedy;
  QCAP_ASSIGN_OR_RETURN(Allocation seed, greedy.Allocate(cls, backends));
  return Improve(cls, backends, seed);
}

Result<Allocation> MemeticAllocator::Improve(
    const Classification& cls, const std::vector<BackendSpec>& backends,
    const Allocation& seed_allocation) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());
  ThreadPool* pool = options_.pool;
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    const size_t threads = options_.threads == 0 ? ThreadPool::DefaultThreads()
                                                 : options_.threads;
    if (threads > 1) {
      owned = std::make_unique<ThreadPool>(threads);
      pool = owned.get();
    }
  }
  const ClassificationIndex index(cls);
  // Bind fragment sizes (O(1) cost accounting) and garbage-collect the seed
  // once: every population member descends from it, and the search assumes
  // members are collected so trials only need to re-collect touched rows.
  Allocation seed = seed_allocation;
  if (!seed.sizes_bound()) seed.BindSizes(cls.catalog);
  {
    SearchKernel kernel(cls, index, backends, options_.progress);
    kernel.GarbageCollect(&seed);
  }
  IslandModel model(cls, index, backends, options_);
  return model.Run(seed, pool);
}

}  // namespace qcap

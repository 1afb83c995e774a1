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
#include "model/validation.h"

namespace qcap {

namespace {

using alloc_internal::SearchKernel;
using alloc_internal::ShareCounts;
using alloc_internal::SolutionCost;

/// Maximum local-search sweeps per LocalImprove() call.
constexpr size_t kImprovePasses = 2;

/// A population member: a garbage-collected allocation, its share counts
/// (kept exact through every share edit, so a mutation or trial collects
/// from them instead of re-deriving the closure unions), and its cost.
struct Member {
  Allocation alloc;
  ShareCounts counts;
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
    holders_.reserve(backends.size());
    touched_.reserve(backends.size());
  }

  SolutionCost Evaluate(const Allocation& a) const { return kernel_.Evaluate(a); }

  // Everything from here to EvolveGenerations' end runs once per generation
  // or per trial. Trials edit trial_, a mirror of the member being improved,
  // and copy back only the backends they touched; offspring are written
  // into recycled population buffers. Every share edit goes through the
  // kernel against the edited member's counts, so collections read the
  // counts instead of re-deriving closure unions. Past the first
  // generations no path below allocates.
  // qcap-lint: hot-path begin

  /// Writes into \p child a copy of \p parent with one random (read class,
  /// backend) share moved to another backend. \p child's buffers are reused.
  void Mutate(const Member& parent, Member* child) {
    *child = parent;
    // The candidates are the (read class, backend) pairs with a share above
    // 1e-12, in r-major, b-ascending order; the draw indexes that sequence,
    // so its order is part of the deterministic trace. The counts hold how
    // many candidates each read has, so the draw needs no scan of the
    // assignment matrix.
    Allocation* a = &child->alloc;
    const size_t B = a->num_backends();
    const size_t total = child->counts.draw_total;
    if (total == 0 || B < 2) return;
    size_t r = 0, b1 = 0;
    kernel_.NthShare(*a, child->counts, rng_.NextBounded(total), &r, &b1);
    size_t b2 = static_cast<size_t>(rng_.NextBounded(B - 1));
    if (b2 >= b1) ++b2;
    const double have = a->read_assign(b1, r);
    const double share =
        rng_.NextBernoulli(0.5) ? have : have * rng_.NextDouble(0.25, 1.0);
    kernel_.AddShare(a, &child->counts, b1, r, -share);
    kernel_.AddShare(a, &child->counts, b2, r, share);
    a->PlaceBits(b2, index_.read_bits(r));
    kernel_.CloseUpdates(a, b2);
    // The parent is garbage-collected (population invariant), so only the
    // two modified rows can hold junk; the counts say what they keep.
    const size_t touched[2] = {b1, b2};
    kernel_.CollectCounted(a, child->counts, touched, 2, &touched_);
  }

  /// Scores trial_, which differs from \p m on the backends in touched_,
  /// against \p before. An improving trial is copied into \p m; a losing
  /// one is reverted. Either way trial_ and its counts match \p m's again
  /// afterwards.
  bool Settle(Member* m, const SolutionCost& before) {
    if (kernel_.EvaluateDelta(trial_.alloc, touched_).Better(before)) {
      m->alloc.CopyBackendsFrom(trial_.alloc, touched_);
      kernel_.AcceptTrial(&m->counts);
      RecordImprovement();
      return true;
    }
    trial_.alloc.CopyBackendsFrom(m->alloc, touched_);
    kernel_.RejectTrial(&trial_.counts);
    return false;
  }

  /// trial_.alloc's share of read \p r on backend \p b += \p delta.
  void EditTrial(size_t b, size_t r, double delta) {
    kernel_.AddTrialShare(&trial_.alloc, &trial_.counts, b, r, delta);
  }

  /// Local search strategy 1 (Eq. 21/22): consolidate pairs of read classes
  /// that are split across the same two backends but drag different update
  /// sets, freeing update replicas. The `before` cost is computed lazily,
  /// only once a candidate pair actually exists; each trial edits trial_
  /// and is scored via the O(|touched|) delta form.
  bool ImproveSharedPairs(Member* m) {
    const Allocation* a = &m->alloc;
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
        const std::span<const uint32_t> shared(collect_scratch_.data(),
                                               num_shared);
        for (size_t i = 0; i < shared.size(); ++i) {
          for (size_t j = 0; j < shared.size(); ++j) {
            if (i == j) continue;
            const size_t r1 = shared[i], r2 = shared[j];
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
            EditTrial(b2, r1, -delta);
            EditTrial(b1, r1, delta);
            EditTrial(b1, r2, -delta);
            EditTrial(b2, r2, delta);
            const size_t touched[2] = {b1, b2};
            kernel_.CollectCounted(&trial_.alloc, trial_.counts, touched, 2,
                                   &touched_);
            if (Settle(m, before)) return true;
          }
        }
      }
    }
    return false;
  }

  /// Local search strategy 2 (Eq. 23-26): evacuate the read load that pins a
  /// replicated (heavy) update class on one backend over to another backend
  /// already carrying the class, trading lighter replication for it.
  bool ImproveUpdateReplicas(Member* m) {
    const Allocation* a = &m->alloc;
    Allocation* trial = &trial_.alloc;
    bool have_before = false;
    SolutionCost before;
    for (size_t u = 0; u < cls_.updates.size(); ++u) {
      holders_.clear();
      for (size_t b = 0; b < a->num_backends(); ++b) {
        // qcap-lint: allow(hot-path-growth) -- holders_ is reserved to num_backends in the constructor
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
          bool moved = false;
          for (size_t r = 0; r < cls_.reads.size(); ++r) {
            if (trial->read_assign(b1, r) <= 1e-12) continue;
            if (!Intersects(index_.read_bits(r), index_.update_bits(u))) {
              continue;
            }
            const double w = trial->read_assign(b1, r);
            EditTrial(b1, r, -w);
            EditTrial(b2, r, w);
            trial->PlaceBits(b2, index_.read_bits(r));
            kernel_.CloseUpdates(trial, b2);
            moved = true;
          }
          if (!moved) continue;  // trial_ is untouched.
          const size_t touched[2] = {b1, b2};
          kernel_.CollectCounted(trial, trial_.counts, touched, 2, &touched_);
          if (Settle(m, before)) return true;
        }
      }
    }
    return false;
  }

  void LocalImprove(Member* m) {
    // The one full copy per call, counts included; every trial after it
    // restores only the rows it touched and undoes only its own crossings.
    trial_ = *m;
    for (size_t pass = 0; pass < kImprovePasses; ++pass) {
      const bool improved = ImproveSharedPairs(m) || ImproveUpdateReplicas(m);
      if (!improved) break;
    }
  }

  /// Evolves the island's population for \p generations, all of it on the
  /// calling thread and drawing only from the island's RNG, so the outcome
  /// does not depend on which worker runs the island.
  void EvolveGenerations(std::vector<Member>* population, size_t generations,
                         size_t island_population) {
    const size_t p = std::max<size_t>(3, island_population);
    if (offspring_.size() != p) {
      // qcap-lint: allow(hot-path-growth) -- one-time sizing of the island's offspring slots on its first epoch
      offspring_.resize(p);
    }
    auto by_cost = [](const Member& x, const Member& y) {
      return x.cost.Better(y.cost);
    };
    for (size_t iter = 0; iter < generations; ++iter) {
      // Offspring: p mutations of random parents, each written into a
      // recycled slot and scored in the same order as it was drawn.
      for (Member& kid : offspring_) {
        const Member& parent =
            (*population)[rng_.NextBounded(population->size())];
        Mutate(parent, &kid);
        kid.cost = Evaluate(kid.alloc);
      }
      // (λ+µ) selection: best 2/3 of parents + best 1/3 of offspring.
      // Selection only consumes the kept prefix, so a partial sort to that
      // prefix replaces the two full sorts.
      const size_t keep_parents = std::min(population->size(), 2 * p / 3);
      const size_t keep_children = p - keep_parents;
      std::partial_sort(population->begin(),
                        population->begin() + keep_parents, population->end(),
                        by_cost);
      std::partial_sort(offspring_.begin(), offspring_.begin() + keep_children,
                        offspring_.end(), by_cost);
      // The kept children swap into the slots past the kept parents; the
      // parents they displace become the next generation's offspring
      // buffers. The population grows from its single seed to p members in
      // the first generation and keeps that size after.
      // qcap-lint: allow(hot-path-growth) -- the population grows once, from the seed to p members, in the first generation
      population->resize(keep_parents + keep_children);
      for (size_t i = 0; i < keep_children; ++i) {
        std::swap((*population)[keep_parents + i], offspring_[i]);
      }
      // Memetic step: locally improve a random third of the population.
      const size_t improve_count = std::max<size_t>(1, population->size() / 3);
      for (size_t i = 0; i < improve_count; ++i) {
        Member& m = (*population)[rng_.NextBounded(population->size())];
        LocalImprove(&m);
        m.cost = Evaluate(m.alloc);
      }
      if (opts_.progress != nullptr) {
        opts_.progress->generations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // qcap-lint: hot-path end

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

  // Reused scratch, sized in the constructor or on first use.
  std::vector<uint32_t> collect_scratch_;  // CollectBothAbove output, |reads|.
  std::vector<size_t> holders_;
  std::vector<size_t> touched_;
  Member trial_;  // Mirror of the member LocalImprove edits (cost unused).
  std::vector<Member> offspring_;  // One generation's children, recycled.
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

  Allocation Run(const Allocation& seed, const ShareCounts& seed_counts,
                 ThreadPool* pool) {
    const size_t n = evolvers_.size();
    for (size_t i = 0; i < n; ++i) {
      populations_[i].push_back(
          Member{seed, seed_counts, evolvers_[i]->Evaluate(seed)});
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
                                        island_population_);
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
  /// Every emigrant is the best of its island before any migration: walking
  /// the sources in descending order reads each island before it is
  /// written, except island 0, which island n-1 writes first, so only
  /// island 0's best is snapshotted.
  void Migrate() {
    const size_t n = populations_.size();
    emigrant_ = Best(populations_[0]);
    for (size_t i = n; i-- > 1;) {
      Immigrate(Best(populations_[i]), &populations_[(i + 1) % n]);
    }
    Immigrate(emigrant_, &populations_[1]);
  }

  static const Member& Best(const std::vector<Member>& population) {
    return *std::min_element(population.begin(), population.end(), ByCost);
  }

  void Immigrate(const Member& emigrant, std::vector<Member>* target) {
    auto worst = std::max_element(target->begin(), target->end(), ByCost);
    if (emigrant.cost.Better(worst->cost)) {
      *worst = emigrant;  // Copy-assign: reuses the member's buffers.
      if (opts_.progress != nullptr) {
        opts_.progress->migrations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const MemeticOptions& opts_;
  size_t island_population_ = 3;
  std::vector<std::unique_ptr<Evolver>> evolvers_;
  std::vector<std::vector<Member>> populations_;
  Member emigrant_;  // Island 0's best during a migration, reused.
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
  QCAP_RETURN_NOT_OK(
      ValidateAllocationShape(cls, seed_allocation, backends.size()));
  QCAP_RETURN_NOT_OK(ValidateReadShares(cls, seed_allocation));
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
  // Bind fragment sizes (O(1) cost accounting), garbage-collect the seed
  // and count its shares once: every population member descends from it,
  // the search assumes members are collected so trials only need to
  // re-collect touched rows, and the counts travel with every copy.
  Allocation seed = seed_allocation;
  if (!seed.sizes_bound()) seed.BindSizes(cls.catalog);
  ShareCounts seed_counts;
  {
    SearchKernel kernel(cls, index, backends, options_.progress);
    kernel.GarbageCollect(&seed);
    kernel.CountShares(seed, &seed_counts);
  }
  IslandModel model(cls, index, backends, options_);
  return model.Run(seed, seed_counts, pool);
}

}  // namespace qcap

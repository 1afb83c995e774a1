#include "alloc/memetic.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "alloc/greedy.h"
#include "alloc/memetic_island.h"
#include "alloc/search_kernel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "model/metrics.h"
#include "model/validation.h"

namespace qcap {

namespace alloc_internal {

namespace {

/// Maximum local-search sweeps per LocalImprove() call.
constexpr size_t kImprovePasses = 2;

/// Copying only a member's stale rows costs a few calls per row. Below
/// about this much data per backend row (a few hundred read classes),
/// copying every buffer whole is faster.
constexpr size_t kMinRowCopyBytes = 2048;

}  // namespace

uint64_t NewStamp() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Member MakeSeedMember(const Classification& cls,
                      const ClassificationIndex& index,
                      const std::vector<BackendSpec>& backends,
                      const Allocation& seed, SearchProgress* progress) {
  // Bind fragment sizes (O(1) cost accounting), count the seed's shares
  // once and garbage-collect it from those counts (collection edits no
  // share, so they stay exact): the counts travel with every copy.
  Member member;
  member.alloc = seed;
  if (!member.alloc.sizes_bound()) member.alloc.BindSizes(cls.catalog);
  SearchKernel kernel(cls, index, backends, progress);
  kernel.CountShares(member.alloc, &member.counts);
  kernel.CollectAll(&member.alloc, member.counts);
  member.stamps.assign(backends.size(), NewStamp());
  return member;
}

Evolver::Evolver(const Classification& cls, const ClassificationIndex& index,
                 const std::vector<BackendSpec>& backends,
                 const MemeticOptions& opts, uint64_t island_id)
    : cls_(cls),
      index_(index),
      opts_(opts),
      kernel_(cls, index, backends, opts.progress),
      rng_(opts.seed + island_id) {
  collect_scratch_.resize(cls.reads.size());
  holders_.reserve(backends.size());
  touched_.reserve(backends.size());
  stale_.reserve(backends.size());
  // A memetic trial edits each (read, backend) cell at most once, and only
  // on its two backends.
  edits_.reserve(2 * cls.reads.size());
  kernel_.ReserveTrialLog();
  const size_t row_bytes =
      sizeof(double) * (cls.reads.size() + cls.updates.size()) +
      sizeof(uint32_t) * (cls.catalog.size() + cls.updates.size());
  copy_rows_ = row_bytes >= kMinRowCopyBytes;
}

void Evolver::Prepare(const Member& seed, size_t island_population,
                      std::vector<Member>* population) {
  p_ = std::max<size_t>(3, island_population);
  population->reserve(p_);
  population->push_back(seed);
  population->back().cost = Evaluate(seed.alloc);
  offspring_.assign(p_, seed);
  spare_.assign(p_ - 1, seed);
  trial_ = seed;
}

// Everything from here to EvolveGenerations' end runs once per generation or
// per trial (CopyMember also once per migration). Member copies take only
// the rows whose stamps differ; trials edit trial_, a mirror of the member
// being improved, and copy back only the cells and backend rows they
// touched; offspring are written into recycled population buffers. Every
// share edit goes through the kernel against the edited member's counts, so
// collections read the counts instead of re-deriving closure unions. Prepare
// sized every buffer, so nothing below allocates.
// qcap-lint: hot-path begin

void Evolver::CopyMember(const Member& src, Member* dst) {
  assert(dst->stamps.size() == src.stamps.size());
  if (!copy_rows_) {
    // Both members have the seed's shapes, so this reuses dst's buffers.
    *dst = src;
    return;
  }
  stale_.clear();
  for (size_t b = 0; b < src.stamps.size(); ++b) {
    if (dst->stamps[b] == src.stamps[b]) continue;
    dst->stamps[b] = src.stamps[b];
    // qcap-lint: allow(hot-path-growth) -- stale_ holds <= num_backends entries, reserved in the constructor
    stale_.push_back(b);
  }
  dst->alloc.CopyBackendsFrom(src.alloc, stale_);
  kernel_.CopyCountRows(src.counts, stale_, &dst->counts);
  dst->cost = src.cost;
}

namespace {

/// Gives \p m's rows \p rows one fresh stamp, and \p mirror's too when it
/// holds the same rows.
void Restamp(const std::vector<size_t>& rows, Member* m, Member* mirror) {
  const uint64_t stamp = NewStamp();
  for (const size_t b : rows) {
    m->stamps[b] = stamp;
    if (mirror != nullptr) mirror->stamps[b] = stamp;
  }
}

}  // namespace

void Evolver::Mutate(const Member& parent, Member* child) {
  CopyMember(parent, child);
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
  kernel_.PlaceAndClose(a, b2, index_.read_bits(r));
  // The parent is garbage-collected (population invariant), so only the
  // two modified rows can hold junk; the counts say what they keep.
  const size_t touched[2] = {b1, b2};
  kernel_.CollectCounted(a, child->counts, touched, 2, &touched_);
  Restamp(touched_, child, nullptr);
}

bool Evolver::Settle(Member* m, const SolutionCost& before) {
  const bool better =
      kernel_.EvaluateDelta(trial_.alloc, touched_).Better(before);
  if (better) {
    m->alloc.CopyEditsFrom(trial_.alloc, touched_, edits_);
    kernel_.AcceptTrial(&m->counts);
    Restamp(touched_, m, &trial_);
    RecordImprovement();
  } else {
    trial_.alloc.CopyEditsFrom(m->alloc, touched_, edits_);
    kernel_.RejectTrial(&trial_.counts);
  }
  edits_.clear();
  return better;
}

void Evolver::EditTrial(size_t b, size_t r, double delta) {
  kernel_.AddTrialShare(&trial_.alloc, &trial_.counts, b, r, delta);
  // qcap-lint: allow(hot-path-growth) -- a trial logs at most 2R cells, the capacity reserved in the constructor; the log is cleared, not freed, per trial
  edits_.push_back(
      ReadCell{static_cast<uint32_t>(b), static_cast<uint32_t>(r)});
}

/// Consolidates pairs of read classes that are split across the same two
/// backends but drag different update sets, freeing update replicas. The
/// `before` cost is computed lazily, only once a candidate pair actually
/// exists; each trial edits trial_ and is scored via the O(|touched|) delta
/// form.
bool Evolver::ImproveSharedPairs(Member* m) {
  const Allocation* a = &m->alloc;
  bool have_before = false;
  SolutionCost before;
  for (size_t b1 = 0; b1 < a->num_backends(); ++b1) {
    for (size_t b2 = b1 + 1; b2 < a->num_backends(); ++b2) {
      // One SIMD pass over the two contiguous rows: ascending reads with a
      // positive share on both backends (same strict > pair as before).
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

/// Evacuates the read load that pins a replicated (heavy) update class on
/// one backend over to another backend already carrying the class, trading
/// lighter replication for it.
bool Evolver::ImproveUpdateReplicas(Member* m) {
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
        // The reads whose data overlaps u, ascending.
        for (const size_t r : index_.reads_overlapping_update(u)) {
          if (trial->read_assign(b1, r) <= 1e-12) continue;
          const double w = trial->read_assign(b1, r);
          EditTrial(b1, r, -w);
          EditTrial(b2, r, w);
          kernel_.PlaceAndClose(trial, b2, index_.read_bits(r));
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

void Evolver::LocalImprove(Member* m) {
  // One copy per call, of the rows whose stamps differ; every trial after
  // it restores only the cells and rows it touched and undoes only its own
  // crossings.
  CopyMember(*m, &trial_);
  for (size_t pass = 0; pass < kImprovePasses; ++pass) {
    const bool improved = ImproveSharedPairs(m) || ImproveUpdateReplicas(m);
    if (!improved) break;
  }
}

void Evolver::EvolveGenerations(std::vector<Member>* population,
                                size_t generations) {
  const size_t p = p_;
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
    // parents they displace become the next generation's offspring buffers.
    // The population grows from its single seed to p members in the first
    // generation, taking the spare slots Prepare sized, and keeps that size
    // after.
    assert(population->size() <= keep_parents + keep_children);
    while (population->size() < keep_parents + keep_children) {
      // qcap-lint: allow(hot-path-growth) -- Prepare reserved the population to p; the spare slots move in without allocating
      population->push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
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

void Evolver::RecordImprovement() const {
  if (opts_.progress != nullptr) {
    opts_.progress->improvements.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace alloc_internal

namespace {

using alloc_internal::Evolver;
using alloc_internal::Member;

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

  Allocation Run(const Member& seed, ThreadPool* pool) {
    const size_t n = evolvers_.size();
    // Every member buffer is sized here, on the calling thread.
    for (size_t i = 0; i < n; ++i) {
      evolvers_[i]->Prepare(seed, island_population_, &populations_[i]);
    }
    if (n > 1) emigrant_ = seed;
    const size_t epoch = opts_.migration_interval == 0
                             ? opts_.iterations
                             : opts_.migration_interval;
    size_t remaining = opts_.iterations;
    while (remaining > 0) {
      const size_t generations = std::min(epoch == 0 ? remaining : epoch,
                                          remaining);
      ParallelFor(pool, n, [&](size_t i) {
        evolvers_[i]->EvolveGenerations(&populations_[i], generations);
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
    evolvers_[0]->CopyMember(Best(populations_[0]), &emigrant_);
    for (size_t i = n; i-- > 1;) {
      Immigrate(Best(populations_[i]), (i + 1) % n);
    }
    Immigrate(emigrant_, 1);
  }

  static const Member& Best(const std::vector<Member>& population) {
    return *std::min_element(population.begin(), population.end(), ByCost);
  }

  /// Copies \p emigrant over island \p target's worst member if it is
  /// better.
  void Immigrate(const Member& emigrant, size_t target) {
    std::vector<Member>& population = populations_[target];
    auto worst =
        std::max_element(population.begin(), population.end(), ByCost);
    if (emigrant.cost.Better(worst->cost)) {
      // Reuses the member's buffers and copies only its stale rows.
      evolvers_[target]->CopyMember(emigrant, &*worst);
      if (opts_.progress != nullptr) {
        opts_.progress->migrations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const MemeticOptions& opts_;
  size_t island_population_ = 3;
  std::vector<std::unique_ptr<Evolver>> evolvers_;
  std::vector<std::vector<Member>> populations_;
  Member emigrant_;  // Island 0's best during a migration, sized by Run.
};

/// The search from a validated \p seed_allocation over \p index.
Result<Allocation> Search(const MemeticOptions& options,
                          const Classification& cls,
                          const ClassificationIndex& index,
                          const std::vector<BackendSpec>& backends,
                          const Allocation& seed_allocation) {
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    // Islands are the unit of parallelism: more workers than islands idle.
    const size_t threads = std::min(options.threads == 0
                                        ? ThreadPool::DefaultThreads()
                                        : options.threads,
                                    options.num_islands);
    if (threads > 1) {
      owned = std::make_unique<ThreadPool>(threads);
      pool = owned.get();
    }
  }
  const Member seed = alloc_internal::MakeSeedMember(
      cls, index, backends, seed_allocation, options.progress);
  IslandModel model(cls, index, backends, options);
  return model.Run(seed, pool);
}

}  // namespace

Result<Allocation> MemeticAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());
  // One index serves the greedy seed and the search.
  const ClassificationIndex index(cls);
  QCAP_ASSIGN_OR_RETURN(Allocation seed,
                        alloc_internal::GreedyAllocate(cls, index, backends));
  return Search(options_, cls, index, backends, seed);
}

Result<Allocation> MemeticAllocator::Improve(
    const Classification& cls, const std::vector<BackendSpec>& backends,
    const Allocation& seed_allocation) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());
  QCAP_RETURN_NOT_OK(
      ValidateAllocationShape(cls, seed_allocation, backends.size()));
  QCAP_RETURN_NOT_OK(ValidateReadShares(cls, seed_allocation));
  const ClassificationIndex index(cls);
  return Search(options_, cls, index, backends, seed_allocation);
}

}  // namespace qcap

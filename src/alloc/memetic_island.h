// One island of the memetic search (Algorithm 2): its population members
// and the Evolver that mutates, selects and locally improves them.
// MemeticAllocator's island model (memetic.cc) runs one Evolver per island
// and migrates members between them; this header exposes the island so
// that tests can drive it step by step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/memetic.h"
#include "alloc/search_kernel.h"
#include "common/random.h"

namespace qcap::alloc_internal {

/// A population member: a garbage-collected allocation, its share counts
/// (kept exact through every share edit, so a mutation or trial collects
/// from them instead of re-deriving the closure unions), a write stamp per
/// backend, and its cost.
///
/// stamps[b] names the contents of backend b's rows: its allocation row
/// (placement, read and update assignments, aggregates) and its count
/// slices. Every edit of a row gives it a fresh stamp (NewStamp), and a
/// copy carries the stamps with the rows, so two members with equal
/// stamps[b] hold bit-identical rows b, and a copy (Evolver::CopyMember)
/// skips them. The replica-count column and the draw counts span all
/// backends and are always copied.
struct Member {
  Allocation alloc;
  ShareCounts counts;
  std::vector<uint64_t> stamps;
  SolutionCost cost;
};

/// A stamp no row has had before in this process. Migrations copy members
/// between islands that evolve on different threads, so the stamps come
/// from one counter; their values never reach a result, so its order
/// across threads does not matter.
uint64_t NewStamp();

/// The member every population descends from: \p seed with bound fragment
/// sizes, garbage-collected (the search assumes members are collected, so
/// trials only re-collect touched rows), counted, and stamped. Its cost is
/// left unset.
Member MakeSeedMember(const Classification& cls,
                      const ClassificationIndex& index,
                      const std::vector<BackendSpec>& backends,
                      const Allocation& seed, SearchProgress* progress);

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
          uint64_t island_id);

  SolutionCost Evaluate(const Allocation& a) const {
    return kernel_.Evaluate(a);
  }

  /// Sizes every member buffer the island will use from \p seed, on the
  /// calling thread: the population's capacity and first member, the
  /// offspring slots, the slots the first generation's growth appends, and
  /// the trial mirror. After this no generation allocates, whichever
  /// worker runs it, and copies of the seed's close descendants find most
  /// rows already current.
  void Prepare(const Member& seed, size_t island_population,
               std::vector<Member>* population);

  /// Makes \p dst equal to \p src, copying only the backend rows whose
  /// stamps differ, or every buffer whole when the rows are small (under
  /// about 2 KB each). Both must have been sized from the same seed.
  void CopyMember(const Member& src, Member* dst);

  /// Writes into \p child a copy of \p parent with one random (read class,
  /// backend) share moved to another backend. \p child's buffers are reused.
  void Mutate(const Member& parent, Member* child);

  /// Runs the paper's two local searches on \p m (at most two
  /// sweeps), keeping every improving trial. Leaves m.cost stale.
  void LocalImprove(Member* m);

  /// Evolves the island's population, which Prepare sized, for
  /// \p generations, all of it on the calling thread and drawing only from
  /// the island's RNG, so the outcome does not depend on which worker runs
  /// the island.
  void EvolveGenerations(std::vector<Member>* population, size_t generations);

  /// The local search's mirror: equal to the member LocalImprove last
  /// improved, stamps included, whenever no trial is in flight.
  const Member& trial() const { return trial_; }

 private:
  /// Scores trial_, which differs from \p m on the backends in touched_
  /// and, of their read-assignment rows, only in the cells logged in
  /// edits_, against \p before. An improving trial's cells and rows are
  /// copied into \p m; a losing one's are copied back from \p m. Either
  /// way trial_ and its counts match \p m's again afterwards.
  bool Settle(Member* m, const SolutionCost& before);
  /// trial_.alloc's share of read \p r on backend \p b += \p delta.
  void EditTrial(size_t b, size_t r, double delta);
  /// Local search strategy 1 (Eq. 21/22).
  bool ImproveSharedPairs(Member* m);
  /// Local search strategy 2 (Eq. 23-26).
  bool ImproveUpdateReplicas(Member* m);
  void RecordImprovement() const;

  const Classification& cls_;
  const ClassificationIndex& index_;
  const MemeticOptions& opts_;
  SearchKernel kernel_;
  Rng rng_;

  // Reused scratch, sized in the constructor or by Prepare.
  std::vector<uint32_t> collect_scratch_;  // CollectBothAbove output, |reads|.
  std::vector<size_t> holders_;
  std::vector<size_t> touched_;
  std::vector<size_t> stale_;    // CopyMember's rows to copy.
  std::vector<ReadCell> edits_;  // The current trial's edited cells.
  size_t p_ = 3;                 // Island population.
  bool copy_rows_ = true;        // CopyMember copies stale rows only.
  Member trial_;  // Mirror of the member LocalImprove edits (cost unused).
  std::vector<Member> offspring_;  // One generation's children, recycled.
  std::vector<Member> spare_;      // The first generation's growth slots.
};

}  // namespace qcap::alloc_internal

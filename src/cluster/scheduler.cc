#include "cluster/scheduler.h"

namespace qcap {

Result<Scheduler> Scheduler::Build(const Classification& cls,
                                   const Allocation& alloc) {
  Scheduler sched;
  sched.read_candidates_.resize(cls.reads.size());
  sched.update_targets_.resize(cls.updates.size());

  for (size_t r = 0; r < cls.reads.size(); ++r) {
    // Least-pending-first dispatch over every backend holding the class's
    // data (Section 2): the scheduler adapts to actual backend speeds.
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      if (alloc.HoldsAll(b, cls.reads[r].fragments)) {
        sched.read_candidates_[r].push_back(b);
      }
    }
    if (sched.read_candidates_[r].empty()) {
      return Status::InvalidArgument("read class " + cls.reads[r].label +
                                     " has no capable backend");
    }
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      if (alloc.HoldsAny(b, cls.updates[u].fragments)) {
        sched.update_targets_[u].push_back(b);
      }
    }
    if (sched.update_targets_[u].empty()) {
      return Status::InvalidArgument("update class " + cls.updates[u].label +
                                     " has no backend");
    }
  }
  sched.index_prototype_.Build(sched.read_candidates_, alloc.num_backends());
  sched.index_scratch_ = sched.index_prototype_;
  return sched;
}

size_t Scheduler::PickReadBackend(size_t r,
                                  const std::vector<size_t>& pending) {
  const auto& candidates = read_candidates_[r];
  for (size_t b : candidates) {
    index_scratch_.SetKey(b, pending[b]);
  }
  const size_t start = rotation_++ % candidates.size();
  return index_scratch_.Pick(r, start);
}

}  // namespace qcap

#include "alloc/advisor.h"

#include <optional>

#include "common/thread_pool.h"

namespace qcap {

namespace {

/// Candidates within this relative speedup of the best are considered
/// throughput ties; the one with the least storage wins among them.
constexpr double kSpeedupTolerance = 0.02;

}  // namespace

PartitioningAdvisor::PartitioningAdvisor(const engine::Catalog& catalog,
                                         Allocator* allocator,
                                         AdvisorOptions options)
    : catalog_(catalog), allocator_(allocator), options_(std::move(options)) {
  if (allocator_ == nullptr) {
    owned_allocator_ = std::make_unique<MemeticAllocator>(options_.memetic);
    allocator_ = owned_allocator_.get();
  }
}

Result<AdvisorChoice> PartitioningAdvisor::Advise(
    const QueryJournal& journal,
    const std::vector<BackendSpec>& backends) const {
  if (options_.candidates.empty()) {
    return Status::InvalidArgument("no candidate granularities");
  }

  // Each candidate's layout is built independently and lands in the
  // candidate's own slot, so evaluating them on the pool changes nothing
  // about the outcome.
  const size_t n = options_.candidates.size();
  std::vector<std::optional<AdvisorCandidate>> slots(n);
  std::vector<Status> errors(n, Status::OK());
  ParallelFor(options_.pool, n, [&](size_t i) {
    ClassifierOptions copts;
    copts.granularity = options_.candidates[i];
    copts.horizontal_partitions = options_.horizontal_partitions;
    auto layout = BuildLayout(catalog_, journal, copts, *allocator_, backends);
    if (!layout.ok()) {
      errors[i] = layout.status();
      return;
    }
    slots[i] = AdvisorCandidate{copts.granularity, std::move(layout).value()};
  });

  AdvisorChoice choice;
  Status last_error = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].has_value()) {
      choice.evaluated.push_back(std::move(*slots[i]));
    } else {
      last_error = errors[i];
    }
  }
  if (choice.evaluated.empty()) {
    return Status::Internal("no candidate granularity produced a valid "
                            "allocation; last error: " +
                            last_error.ToString());
  }

  // Objective order (Section 3): throughput first, storage second among
  // near-ties.
  double best_speedup = 0.0;
  for (const auto& candidate : choice.evaluated) {
    best_speedup = std::max(best_speedup, candidate.layout.model_speedup);
  }
  const AdvisorCandidate* winner = nullptr;
  for (const auto& candidate : choice.evaluated) {
    if (candidate.layout.model_speedup <
        best_speedup * (1.0 - kSpeedupTolerance)) {
      continue;
    }
    if (winner == nullptr || candidate.layout.degree_of_replication <
                                 winner->layout.degree_of_replication) {
      winner = &candidate;
    }
  }
  choice.best = *winner;
  return choice;
}

}  // namespace qcap

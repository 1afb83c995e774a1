#include "cluster/migration_executor.h"

#include <algorithm>
#include <cmath>

namespace qcap {

namespace {

/// CATCHUP length as a fraction of the (stretched) copy time.
constexpr double kCatchupFraction = 0.1;

}  // namespace

const char* ToString(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kIdle:
      return "idle";
    case MigrationPhase::kCopy:
      return "copy";
    case MigrationPhase::kCatchup:
      return "catchup";
    case MigrationPhase::kDone:
      return "done";
  }
  return "unknown";
}

Status MigrationExecutor::Begin(Allocation target,
                                std::vector<BackendSpec> target_backends,
                                const TransitionPlan& plan,
                                double start_seconds,
                                const MigrationOptions& options) {
  if (active_) {
    return Status::AlreadyExists("migration already in flight");
  }
  if (target.num_backends() == 0) {
    return Status::InvalidArgument("target allocation has no backends");
  }
  if (target.num_backends() != plan.source_of.size() ||
      target.num_backends() != plan.move_bytes.size()) {
    return Status::InvalidArgument(
        "transition plan does not match the target allocation");
  }
  if (target_backends.size() != target.num_backends()) {
    return Status::InvalidArgument("backend specs do not match target");
  }
  if (!(options.etl_interference > 0.0) ||
      !std::isfinite(options.etl_interference)) {
    return Status::InvalidArgument("etl_interference must be finite and > 0");
  }
  if (options.live_copy_slowdown < 1.0 ||
      !std::isfinite(options.live_copy_slowdown)) {
    return Status::InvalidArgument("live_copy_slowdown must be >= 1");
  }
  if (options.min_catchup_seconds < 0.0) {
    return Status::InvalidArgument("min_catchup_seconds must be >= 0");
  }

  target_ = std::move(target);
  target_backends_ = std::move(target_backends);
  options_ = options;
  start_ = start_seconds;
  moved_bytes_ = plan.total_bytes;

  // The plan's duration is the slowest backend's ETL time on a dedicated
  // link; live copying stretches it. Per-backend copy time scales with the
  // bytes it receives relative to the slowest receiver.
  const double copy_total =
      plan.duration_seconds * options_.live_copy_slowdown;
  const double max_bytes =
      *std::max_element(plan.move_bytes.begin(), plan.move_bytes.end());
  const double catchup = std::max(options_.min_catchup_seconds,
                                  kCatchupFraction * copy_total);

  ready_.assign(target_.num_backends(), start_);
  for (size_t b = 0; b < target_.num_backends(); ++b) {
    if (plan.move_bytes[b] <= 0.0) continue;
    const double share =
        max_bytes > 0.0 ? plan.move_bytes[b] / max_bytes : 1.0;
    ready_[b] = start_ + share * copy_total + catchup;
  }
  copy_end_ = start_ + copy_total;
  swap_ = *std::max_element(ready_.begin(), ready_.end());
  // A no-op plan (nothing moves) still takes one catch-up window so the
  // swap never lands at the exact decision instant.
  if (swap_ <= start_) {
    copy_end_ = start_;
    swap_ = start_ + catchup;
  }

  // Serving nodes whose foreground queries feel the ETL: every physical
  // (old-cluster) node that donates bytes to a receiving destination.
  participants_.clear();
  for (size_t b = 0; b < target_.num_backends(); ++b) {
    if (plan.move_bytes[b] <= 0.0) continue;
    if (plan.source_of[b] < 0) continue;  // fresh node: not serving yet
    participants_.push_back(static_cast<size_t>(plan.source_of[b]));
  }
  std::sort(participants_.begin(), participants_.end());
  participants_.erase(
      std::unique(participants_.begin(), participants_.end()),
      participants_.end());

  active_ = true;
  return Status::OK();
}

MigrationPhase MigrationExecutor::PhaseAt(double time_seconds) const {
  if (!active_) return MigrationPhase::kIdle;
  if (time_seconds < start_) return MigrationPhase::kIdle;
  if (time_seconds < copy_end_) return MigrationPhase::kCopy;
  if (time_seconds < swap_) return MigrationPhase::kCatchup;
  return MigrationPhase::kDone;
}

std::vector<InterferenceWindow> MigrationExecutor::InterferenceIn(
    double window_begin, double window_end) const {
  std::vector<InterferenceWindow> windows;
  if (!active_ || options_.etl_interference == 1.0) return windows;
  const double begin = std::max(window_begin, start_);
  const double end = std::min(window_end, copy_end_);
  if (begin >= end) return windows;
  windows.reserve(participants_.size());
  for (size_t node : participants_) {
    windows.push_back(
        InterferenceWindow{node, begin, end, options_.etl_interference});
  }
  return windows;
}

Allocation MigrationExecutor::TakeTarget() {
  active_ = false;
  return std::move(target_);
}

void MigrationExecutor::Abort() {
  active_ = false;
  target_ = Allocation();
  target_backends_.clear();
  ready_.clear();
  participants_.clear();
}

}  // namespace qcap

// Staged live-migration executor: materializes a Hungarian-planned
// transition (physical/physical_allocator.h) while the old placements keep
// serving, then cuts routing over atomically.
//
// The executor models the three stages every live re-allocation goes
// through in the adaptive control loop (autonomic/control_loop.h):
//
//   COPY     ETL streams the missing fragments onto their destinations.
//            Foreground queries still route on the OLD allocation; the
//            serving nodes that donate or receive ETL data run degraded
//            (FaultEvent::kDegrade interference windows) because the copy
//            competes with query execution for I/O and CPU.
//   CATCHUP  Each fragment's new replica drains the update backlog that
//            accumulated while it was copying. Still serving OLD — a
//            replica becomes eligible only once it has caught up, which is
//            what makes the final cut-over safe.
//   SWAP     At swap_seconds() every new replica is caught up and routing
//            flips to the NEW allocation in one atomic step (simulator:
//            next slice runs on the target; serving layer:
//            net::Dispatcher::SwapRouting). No queries are dropped or
//            misrouted across the boundary (pinned by control_loop_test).
//
// Everything is derived arithmetically from the TransitionPlan — the
// executor never reads a clock or draws randomness, so a control loop
// built on it replays bit-identically.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "physical/physical_allocator.h"

namespace qcap {

/// Migration stages; phase boundaries come from PhaseAt().
enum class MigrationPhase { kIdle, kCopy, kCatchup, kDone };

const char* ToString(MigrationPhase phase);

/// Tuning knobs for the staged execution.
struct MigrationOptions {
  /// Service-time multiplier applied to serving nodes participating in the
  /// ETL (donors and co-located destinations) during COPY — the modeled
  /// interference of copy traffic with foreground queries. 1 disables.
  double etl_interference = 1.3;
  /// The plan's ETL duration assumes dedicated bandwidth; copying while
  /// serving stretches it by this factor (>= 1).
  double live_copy_slowdown = 1.25;
  /// Floor for the catch-up window, seconds. Above it, CATCHUP lasts 10% of
  /// the (stretched) copy time — the update backlog grows with how long the
  /// copy ran.
  double min_catchup_seconds = 0.5;
};

/// One ETL interference window on a *serving* (old-cluster) node.
struct InterferenceWindow {
  size_t backend = 0;        ///< Old-allocation node index.
  double begin_seconds = 0;  ///< Window start (absolute control-loop time).
  double end_seconds = 0;    ///< Window end.
  double factor = 1.0;       ///< Degrade factor while the window is open.
};

/// \brief Executes one staged migration; reusable after Reset()/swap.
class MigrationExecutor {
 public:
  /// Starts a migration toward \p target at \p start_seconds following
  /// \p plan. \p target_backends are the specs of the target cluster.
  /// Fails if a migration is already active or the options are invalid.
  Status Begin(Allocation target, std::vector<BackendSpec> target_backends,
               const TransitionPlan& plan, double start_seconds,
               const MigrationOptions& options);

  /// True between Begin() and TakeTarget().
  bool active() const { return active_; }

  MigrationPhase PhaseAt(double time_seconds) const;

  double start_seconds() const { return start_; }
  /// COPY → CATCHUP boundary: every destination finished receiving bytes.
  double copy_end_seconds() const { return copy_end_; }
  /// The atomic routing cut-over: every new replica is caught up.
  double swap_seconds() const { return swap_; }
  /// Per-target-backend instant its last fragment replica is caught up
  /// (<= swap_seconds(); the swap waits for the slowest). Backends that
  /// receive nothing are ready at start_seconds().
  const std::vector<double>& backend_ready_seconds() const { return ready_; }

  double moved_bytes() const { return moved_bytes_; }
  /// Total ETL wall-clock: swap_seconds() - start_seconds().
  double etl_seconds() const { return swap_ - start_; }

  /// ETL interference windows (degrade factor + absolute time range) for
  /// serving old-cluster nodes, clipped to [window_begin, window_end).
  /// Empty when the options disable interference or nothing overlaps.
  std::vector<InterferenceWindow> InterferenceIn(double window_begin,
                                                 double window_end) const;

  /// Old-cluster node indices whose service degrades during COPY (sorted):
  /// the physical nodes that keep serving while donating to or hosting an
  /// ETL destination.
  const std::vector<size_t>& participants() const { return participants_; }

  /// Completes the migration: returns the target allocation and marks the
  /// executor idle. Callers swap their routing to the returned allocation
  /// (this is the simulator-side mirror of Dispatcher::SwapRouting).
  Allocation TakeTarget();
  const Allocation& target() const { return target_; }
  const std::vector<BackendSpec>& target_backends() const {
    return target_backends_;
  }

  /// Abandons an in-flight migration (e.g. superseded by a self-heal
  /// re-plan after a mid-migration crash).
  void Abort();

 private:
  bool active_ = false;
  Allocation target_;
  std::vector<BackendSpec> target_backends_;
  MigrationOptions options_;
  double start_ = 0.0;
  double copy_end_ = 0.0;
  double swap_ = 0.0;
  double moved_bytes_ = 0.0;
  std::vector<double> ready_;
  std::vector<size_t> participants_;
};

}  // namespace qcap

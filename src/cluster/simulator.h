// Discrete-event simulation of the CDBS processing model (Section 2).
//
// Replaces the paper's physical 16-node PostgreSQL/MySQL cluster: queries
// are dispatched by the least-pending-first scheduler to per-backend FIFO
// queues, updates fan out per ROWA, and service times come from the engine
// cost model. Deterministic for a given seed, including the full failure/
// recovery lifecycle (FaultPlan crash/recover/degrade events and the
// retry/backoff re-dispatch of work stranded by a crash).
//
// The event core is built for throughput (docs/ARCHITECTURE.md, "Simulator
// event core"): a pooled 4-ary event calendar (EventQueue), an O(log B)
// least-pending dispatch index (PendingIndex), lazy Poisson arrival
// generation (memory O(in-flight), bit-identical to the eager generator),
// pooled request slots, and run scratch that is reused across runs so the
// drain loop allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/fault_plan.h"
#include "cluster/scheduler.h"
#include "cluster/stats.h"
#include "common/random.h"
#include "exec/cost_model.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

class ThreadPool;

/// Update-synchronization protocol (Section 2 discusses ROWA; primary copy
/// and lazy replication are the alternatives the paper notes "could be
/// easily incorporated into our model and system").
enum class UpdatePropagation {
  /// Read-once/write-all: an update completes when every replica has
  /// executed it synchronously.
  kRowa,
  /// The lowest-indexed replica is the primary; the client's update
  /// completes with the primary, the other replicas apply it
  /// asynchronously (same work, better latency).
  kPrimaryCopy,
  /// Primary copy plus batched application on the secondaries (group
  /// commit): replica apply work is halved.
  kLazy,
};

/// How the scheduler re-dispatches requests stranded by a backend crash.
/// Queued work is re-dispatched when the crash is processed (the scheduler
/// observes the node die); in-flight work is re-dispatched when its
/// expected completion passes without a response (timeout detection). Each
/// re-dispatch waits a backoff delay, simulated as added latency: 10 ms
/// before the first, doubling on each further attempt. Bit-deterministic:
/// retries re-use the request's original class sample and draw nothing
/// from the RNG.
struct RetryPolicy {
  /// Maximum dispatch attempts per logical request, including the first.
  /// 1 disables retries (stranded work counts as failed, the pre-FaultPlan
  /// behaviour); 0 is invalid.
  size_t max_attempts = 3;
};

/// Configuration of one simulated cluster.
struct SimulationConfig {
  engine::CostModelParams cost_params;
  /// Parallel connections per backend queue (Figure 3: "for each queue,
  /// multiple connections are opened").
  size_t servers_per_backend = 4;
  /// Seed for workload sampling.
  uint64_t seed = 1;
  /// How updates reach the replicas.
  UpdatePropagation propagation = UpdatePropagation::kRowa;
  /// Crash/recover/degrade schedule (open- and closed-loop runs).
  FaultPlan fault_plan;
  /// Re-dispatch policy for crash-stranded requests.
  RetryPolicy retry;
  /// ROWA coordination overhead: each update's per-replica service time is
  /// inflated by this fraction per additional replica (ordering all
  /// replicas' application of the same update costs synchronization that
  /// grows with the fan-out). 0 disables the effect.
  double rowa_fanout_overhead = 0.0;
  /// When > 0, SimStats::timeline_completions counts completions per bin
  /// of this width (seconds) — used to plot throughput dips around faults.
  double timeline_bin_seconds = 0.0;
  /// When true, SimStats::class_completions counts completed logical
  /// requests per class (reads first, then updates) — the observed-mix
  /// signal the adaptive control loop's drift detector consumes.
  bool track_class_mix = false;
};

/// Options for RunClosedSweep/RunOpenSweep replication fans.
struct SweepOptions {
  /// Number of independent replications; replication i runs with seed
  /// config.seed + i. Must be >= 1.
  size_t repeat = 1;
  /// Worker threads to spawn when \ref pool is null; <= 1 runs serially.
  /// Results are bit-identical at any thread count (each replication is
  /// fully independent and lands in its submission-order slot).
  size_t threads = 0;
  /// Optional shared pool (not owned); overrides \ref threads.
  ThreadPool* pool = nullptr;
};

/// \brief Event-driven cluster simulator over a fixed allocation.
class ClusterSimulator {
 public:
  /// Builds a simulator; fails if the allocation leaves a class unservable
  /// or the class mix cannot be sampled (no classes, a NaN, infinite or
  /// negative execution frequency, or a zero total).
  static Result<ClusterSimulator> Create(const Classification& cls,
                                         const Allocation& alloc,
                                         const std::vector<BackendSpec>& backends,
                                         const SimulationConfig& config);

  ClusterSimulator(ClusterSimulator&&) noexcept;
  ClusterSimulator& operator=(ClusterSimulator&&) = delete;
  ~ClusterSimulator();

  /// Closed-loop run: keeps \p concurrency logical requests outstanding
  /// until \p num_requests have been issued; measures saturated throughput
  /// (the paper's fixed-request-count test runs).
  Result<SimStats> RunClosed(uint64_t num_requests, size_t concurrency);
  /// As above, writing into \p *out (every field assigned). Reusing the
  /// same \p out lets repeated runs recycle its vector capacity — with the
  /// internal scratch reuse this makes steady-state runs allocation-free.
  Status RunClosed(uint64_t num_requests, size_t concurrency, SimStats* out);

  /// Open-loop run: Poisson arrivals at \p arrival_rate requests/second for
  /// \p duration_seconds; measures response times under a target load (the
  /// Section 5 elasticity experiments). Arrival events are generated
  /// lazily (one outstanding arrival, drawn on pop), so memory is
  /// O(in-flight requests), not O(total requests).
  Result<SimStats> RunOpen(double duration_seconds, double arrival_rate);
  /// As above, writing into \p *out (see the closed-loop overload).
  Status RunOpen(double duration_seconds, double arrival_rate, SimStats* out);

  /// Replication sweep: \p sweep.repeat independent closed-loop runs with
  /// seeds config.seed + i, fanned out on a ThreadPool.
  /// results[i] is bit-identical to a serial run at that seed, at any
  /// thread count.
  Result<std::vector<SimStats>> RunClosedSweep(uint64_t num_requests,
                                               size_t concurrency,
                                               const SweepOptions& sweep) const;
  /// Replication sweep of open-loop runs (see RunClosedSweep).
  Result<std::vector<SimStats>> RunOpenSweep(double duration_seconds,
                                             double arrival_rate,
                                             const SweepOptions& sweep) const;

  /// Reseeds workload sampling for subsequent runs. The only post-Create
  /// mutation: everything else about the configuration is fixed, which is
  /// what lets call sites cache and reuse simulators across runs.
  void set_seed(uint64_t seed) { config_.seed = seed; }
  uint64_t seed() const { return config_.seed; }

 private:
  ClusterSimulator(const Classification& cls, const Allocation& alloc,
                   const std::vector<BackendSpec>& backends,
                   const SimulationConfig& config, Scheduler scheduler,
                   DiscreteSampler class_sampler);

  struct RunState;
  enum class DispatchOutcome { kDispatched, kRejected };

  DispatchOutcome Dispatch(RunState* state, uint64_t request_id,
                           size_t class_index, double now) const;
  void StartReady(RunState* state, size_t backend, double now) const;
  /// A crash destroyed \p request_id's work on \p backend with base service
  /// time \p service_seconds: schedules a retry, accumulates replica lag,
  /// or fails the request per the retry policy. Returns true iff this
  /// reached a terminal state (failed, or an update completed on its
  /// surviving replicas).
  bool HandleLostWork(RunState* state, uint64_t request_id, size_t backend,
                      double service_seconds, double now) const;
  /// Retry-budget bookkeeping: schedules the next attempt or fails the
  /// request. Returns true iff the request failed terminally.
  bool ScheduleRetry(RunState* state, uint64_t request_id, double now) const;
  /// Applies one fault event; returns how many logical requests reached a
  /// terminal state as a direct consequence (crash-stranded work).
  size_t ApplyFault(RunState* state, const FaultEvent& fault, double now) const;
  /// Resets \p state and seeds it with nodes, the pending index, and the
  /// pre-sorted fault schedule. Shared by both run modes.
  Status InitRun(RunState* state) const;
  /// Open loop: pushes the next lazy Poisson arrival event, or marks the
  /// stream exhausted once the drawn time passes the horizon.
  void ScheduleNextArrival(RunState* state) const;
  /// Drains the event queue; \p issue_next is invoked (closed loop) every
  /// time a logical request reaches a terminal state.
  template <typename IssueNext>
  void DrainEvents(RunState* state, Rng* rng, const IssueNext& issue_next) const;
  /// Writes run results into \p *out, assigning every SimStats field.
  void FinishInto(RunState* state, SimStats* out) const;

  Status RunClosedInto(RunState* state, uint64_t seed, uint64_t num_requests,
                       size_t concurrency, SimStats* out) const;
  Status RunOpenInto(RunState* state, uint64_t seed, double duration_seconds,
                     double arrival_rate, SimStats* out) const;
  /// Lazily-allocated scratch reused by the serial Run* entry points.
  RunState* Scratch();

  const Classification& cls_;
  const Allocation& alloc_;
  std::vector<BackendSpec> backends_;
  SimulationConfig config_;
  Scheduler scheduler_;
  /// Service seconds per (class, backend), row-major (stride = num
  /// backends, reads first then updates), update rows scaled by the ROWA
  /// fan-out overhead: one indexed load per lookup on the dispatch fast
  /// path.
  std::vector<double> service_flat_;
  /// Draws a class index in [0, reads+updates) by execution frequency.
  DiscreteSampler class_sampler_;
  /// fault_plan, validated and sorted once at construction (the schedule
  /// is per-config, not per-run).
  std::vector<FaultEvent> faults_;
  Status fault_status_;
  std::unique_ptr<RunState> scratch_;
};

}  // namespace qcap

// The serving layer's routing brain (docs/SERVING.md): parses one
// wire-protocol request line, routes SUBMITs through the same
// `Scheduler::PickReadBackend` / `PendingIndex` machinery the simulator
// uses, applies per-class token-bucket admission control, and renders the
// STATS / METRICS / HEALTH observability surfaces.
//
// All mutable state sits behind one routing lock: the poll loop executes
// requests strictly in arrival order, and any other thread (the embedding
// program, a metrics scraper using the in-process API) can take consistent
// snapshots concurrently. The dispatcher itself never reads a clock —
// callers pass monotonic seconds in — so its behaviour for a given request
// sequence with given timestamps is fully deterministic and the routing
// decisions are bit-identical to direct `Scheduler` calls on the same
// class sequence (pinned by serving_integration_test and bench_serving).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/scheduler.h"
#include "common/annotations.h"
#include "common/stats.h"
#include "common/status.h"
#include "net/token_bucket.h"

namespace qcap::net {

/// Admission-control knobs (see docs/SERVING.md, "Deployment & tuning").
struct ServingLimits {
  /// Sustained SUBMIT budget per query class, requests/second.
  /// <= 0 disables admission control entirely.
  double rate_limit_qps = 0.0;
  /// Instantaneous burst per class, tokens. <= 0 defaults to
  /// max(1, rate_limit_qps): one second of budget, at least one request.
  double rate_limit_burst = 0.0;
};

/// Consistent snapshot of the dispatcher's counters.
struct ServingCounters {
  uint64_t requests_total = 0;    ///< Every frame executed, all verbs.
  uint64_t reads_routed = 0;      ///< SUBMIT R answered with a backend.
  uint64_t updates_routed = 0;    ///< SUBMIT U answered with targets.
  uint64_t rejected = 0;          ///< SUBMITs denied by admission control.
  uint64_t unservable = 0;        ///< SUBMITs with no live capable backend.
  uint64_t bad_requests = 0;      ///< Parse/validation failures.
  uint64_t done_acks = 0;         ///< DONE completions applied.
  uint64_t reloads = 0;           ///< Routing-table hot-swaps applied.
  uint64_t routing_generation = 1;  ///< Bumped by every successful swap.
  std::vector<size_t> pending;    ///< Per-backend outstanding depth.
  std::vector<bool> alive;        ///< Per-backend liveness.
  std::vector<double> degrade;    ///< Per-backend straggler factor (1 = ok).
};

/// A (Classification, Allocation) pair a RELOAD provider hands back; the
/// dispatcher builds its replacement routing table from it (nothing is
/// retained after the swap — Scheduler::Build copies what it needs).
struct RoutingTable {
  Classification cls;
  Allocation alloc;
};

/// \brief Thread-safe request executor over one (Classification,
/// Allocation) routing table.
class Dispatcher {
 public:
  /// Builds the routing table (fails like Scheduler::Build when some class
  /// has no capable backend). Returned by pointer: the routing lock makes
  /// the dispatcher immovable.
  static Result<std::unique_ptr<Dispatcher>> Create(
      const Classification& cls, const Allocation& alloc,
      const ServingLimits& limits);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Outcome of executing one request frame.
  ///
  /// Routed SUBMITs and DONEs build no heap memory: their replies fit
  /// std::string's inline buffer (15 characters). The exception is an
  /// update reply naming three or more backends ("OK BACKENDS 0 1 3" is
  /// 17 characters), which allocates once; on the TPC-App serving mix
  /// that is about 0.03 allocations per SUBMIT.
  struct Reply {
    std::string text;          ///< Response payload (one frame).
    bool close_session = false;  ///< QUIT: flush the reply, then close.
    bool routed = false;       ///< A SUBMIT that reached the scheduler —
                               ///< the caller should time it and call
                               ///< RecordRoutingLatency.
  };

  /// Parses and executes one request line. \p now_seconds is monotonic
  /// time with a caller-chosen origin (used for admission-control refill
  /// and uptime reporting).
  Reply Execute(std::string_view request, double now_seconds)
      QCAP_EXCLUDES(lock_);

  /// Adds one routing-latency sample (seconds) to the fixed-memory
  /// histogram feeding METRICS: O(1), no allocation.
  void RecordRoutingLatency(double seconds) QCAP_EXCLUDES(lock_);

  /// Counter snapshot under the routing lock.
  ServingCounters Snapshot() const QCAP_EXCLUDES(lock_);

  /// Atomically replaces the routing table (the serving half of the
  /// adaptive control loop's migration cut-over). Builds the new scheduler
  /// first — on failure the old table keeps serving untouched. On success:
  ///  - tie-rotation state carries over, so decisions for classes whose
  ///    candidate sets are unchanged are bit-identical across the swap
  ///    boundary (pinned by control_loop_test);
  ///  - per-backend pending depth, liveness, and degrade factors carry
  ///    over by index; backends added by a scale-out join alive and idle,
  ///    backends dropped by a scale-in are forgotten;
  ///  - admission buckets keep their fill level for existing classes (the
  ///    budget already spent is workload state, not routing state), new
  ///    classes start with a full bucket;
  ///  - the routing generation is bumped (METRICS: qcap_routing_generation).
  /// Thread-safe: callers may swap while the poll loop executes traffic.
  Status SwapRouting(const Classification& cls, const Allocation& alloc)
      QCAP_EXCLUDES(lock_);

  /// Handler behind the RELOAD wire verb: maps the verb's tag argument to
  /// a replacement routing table (e.g. by re-running the allocator).
  /// Without a provider, RELOAD answers ERR NO_PROVIDER.
  using ReloadProvider =
      std::function<Result<RoutingTable>(std::string_view tag)>;
  void SetReloadProvider(ReloadProvider provider) QCAP_EXCLUDES(lock_);

  /// Current routing-table generation (1 until the first swap).
  uint64_t routing_generation() const QCAP_EXCLUDES(lock_);

  /// Routing-table shape. A SwapRouting can change all three, so the
  /// reads take the routing lock (they are observability calls, not
  /// hot-path ones).
  size_t num_backends() const QCAP_EXCLUDES(lock_);
  size_t num_read_classes() const QCAP_EXCLUDES(lock_);
  size_t num_update_classes() const QCAP_EXCLUDES(lock_);

 private:
  Dispatcher(Scheduler scheduler, size_t num_backends, size_t num_reads,
             size_t num_updates, const ServingLimits& limits);

  /// One request line split on runs of spaces/tabs: views into the line
  /// for the first kMax fields, plus the true field count, so a request
  /// with too many fields still gets its verb's usage error. The longest
  /// valid request (FAULT DEGRADE <backend> <factor>) has 4 fields.
  class Fields {
   public:
    static constexpr size_t kMax = 5;
    explicit Fields(std::string_view line);
    size_t size() const { return count_; }
    /// Field \p i; requires i < min(size(), kMax).
    std::string_view operator[](size_t i) const { return at_[i]; }

   private:
    std::array<std::string_view, kMax> at_;
    size_t count_ = 0;
  };

  // Verb handlers; all run under lock_.
  Reply Submit(const Fields& args, double now_seconds) QCAP_REQUIRES(lock_);
  Reply Done(const Fields& args) QCAP_REQUIRES(lock_);
  Reply Fault(const Fields& args) QCAP_REQUIRES(lock_);
  Reply Reload(const Fields& args) QCAP_REQUIRES(lock_);
  std::string StatsLine() const QCAP_REQUIRES(lock_);
  std::string MetricsText(double now_seconds) QCAP_REQUIRES(lock_);
  std::string HealthLine(double now_seconds) const QCAP_REQUIRES(lock_);
  /// SwapRouting's body; runs under lock_.
  Status SwapRoutingLocked(const Classification& cls, const Allocation& alloc)
      QCAP_REQUIRES(lock_);

  mutable Mutex lock_;  ///< The single routing lock.
  Scheduler scheduler_ QCAP_GUARDED_BY(lock_);
  size_t num_backends_ QCAP_GUARDED_BY(lock_);
  size_t num_reads_ QCAP_GUARDED_BY(lock_);
  size_t num_updates_ QCAP_GUARDED_BY(lock_);
  /// Immutable after construction (a swap re-reads, never re-writes it).
  ServingLimits limits_;
  /// Per-backend outstanding request depth; a crashed backend's slot holds
  /// PendingIndex::kDeadKey so it loses every least-pending comparison.
  std::vector<size_t> pending_ QCAP_GUARDED_BY(lock_);
  std::vector<bool> alive_ QCAP_GUARDED_BY(lock_);
  /// Per-backend straggler factor (FAULT DEGRADE); informational — routing
  /// stays least-pending-first, mirroring the simulator, where degrade
  /// slows service times but never changes dispatch policy.
  std::vector<double> degrade_ QCAP_GUARDED_BY(lock_);
  /// One bucket per class (reads then updates); empty = admission off.
  std::vector<TokenBucket> buckets_ QCAP_GUARDED_BY(lock_);
  ReloadProvider reload_provider_ QCAP_GUARDED_BY(lock_);
  ServingCounters counters_ QCAP_GUARDED_BY(lock_);
  /// Routing latencies: constant memory however long the server runs.
  LatencyHistogram latency_ QCAP_GUARDED_BY(lock_);
};

}  // namespace qcap::net

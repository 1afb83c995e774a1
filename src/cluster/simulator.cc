#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>

#include "cluster/backend_node.h"
#include "common/arena.h"
#include "common/stats.h"
#include "cluster/event_queue.h"
#include "cluster/pending_index.h"
#include <bit>

#include "cluster/server_calendar.h"
#include "common/thread_pool.h"
#include "model/validation.h"

namespace qcap {

namespace {

/// Sentinel request id for asynchronous secondary update application
/// (primary-copy / lazy propagation) and replica-lag drain work: consumes
/// backend capacity but never completes a logical request. Request slots
/// are pool indexes, so the sentinel can never collide with a real id.
constexpr uint64_t kBackgroundRequest = ~uint64_t{0};

/// Work discount for asynchronous batched application under kLazy.
constexpr double kLazyApplyFactor = 0.5;
/// Retry backoff: delay before the first re-dispatch, and the multiplier
/// applied on each further attempt.
constexpr double kBaseBackoffSeconds = 0.01;
constexpr double kBackoffMultiplier = 2.0;

struct Request {
  size_t class_index = 0;  // reads first, then updates.
  size_t remaining_replicas = 0;
  size_t completed_replicas = 0;
  size_t attempts = 0;  // dispatch attempts used (retry budget).
  double submit_time = 0.0;
  /// Backoff delay of the most recently scheduled retry; the next retry
  /// multiplies it once instead of re-deriving base * multiplier^k.
  double backoff_seconds = 0.0;
  bool is_update = false;
};

}  // namespace

struct ClusterSimulator::RunState {
  /// Backing store for the flat per-backend/per-class columns below: one
  /// bump-allocated region Reset() rewinds, so repeated runs on a pooled
  /// state re-carve the same block instead of re-touching the heap.
  Arena arena;
  std::vector<BackendNode> nodes;
  ArenaArray<uint8_t> alive;
  /// Bumped on every crash; completion events carry the epoch their task
  /// started under, so stale events (work destroyed by the crash) are
  /// recognizable even after the backend recovers.
  ArenaArray<uint64_t> epoch;
  /// Service-time multiplier per backend (straggler mode; 1 = healthy).
  ArenaArray<double> degrade;
  /// Missed update applications per backend, drained FIFO on recovery.
  std::vector<std::vector<BackendTask>> lag;
  std::vector<FaultEvent> faults;  // sorted by (time, insertion order).
  /// Completion calendar: one slot per server (backend * servers_per_backend
  /// + server). Holds the common case — the single outstanding completion of
  /// an in-service task.
  ServerCalendar calendar;
  /// Aux calendar for everything else: faults, retries, open-loop arrivals,
  /// crash-displaced completions, and boundary-time double bookings. Merged
  /// against \ref calendar by (time, seq) in the drain loop.
  EventQueue events;
  /// Pooled request slots: terminal requests return their slot to the free
  /// list, so storage is O(in-flight), not O(total requests issued).
  std::vector<Request> requests;
  std::vector<uint64_t> free_requests;
  /// Per-read-class least-pending index, kept in sync with node pending
  /// counts and liveness (kDeadKey while crashed).
  PendingIndex pending;
  ResponseAccumulator responses;
  std::vector<BackendTask> crash_scratch;
  std::vector<double> percentile_scratch;
  uint64_t completed_reads = 0;
  uint64_t completed_updates = 0;
  uint64_t failed_requests = 0;
  uint64_t rejected_requests = 0;
  uint64_t retried_requests = 0;
  uint64_t redispatched_requests = 0;
  uint64_t lag_tasks_drained = 0;
  size_t rotation = 0;
  double last_completion = 0.0;
  double timeline_bin = 0.0;
  std::vector<uint64_t> timeline;
  /// Completed logical requests per class; empty when mix tracking is off
  /// (sized once in InitRun, so the hot-path increment never grows it).
  ArenaArray<uint64_t> class_counts;
  size_t dead_count = 0;
  uint64_t next_seq = 0;
  // Lazy open-loop arrival generation: one outstanding arrival event at a
  // time, the next drawn when it pops.
  Rng arrival_rng{0};
  double arrival_time = 0.0;
  double arrival_horizon = 0.0;
  double arrival_mean = 0.0;
  uint64_t arrival_seq = 0;
  bool arrivals_active = false;

  uint64_t NextSeq() { return next_seq++; }

  /// Returns the state to run-start condition, keeping every container's
  /// capacity so repeated runs on the same scratch allocate nothing.
  void Reset(size_t num_backends, size_t servers) {
    if (nodes.size() != num_backends) {
      nodes.assign(num_backends, BackendNode(servers));
    }
    for (BackendNode& node : nodes) node.Reset(servers);
    arena.Reset();
    alive.Assign(&arena, num_backends, 1);
    epoch.Assign(&arena, num_backends, 0);
    degrade.Assign(&arena, num_backends, 1.0);
    lag.resize(num_backends);
    for (auto& tasks : lag) tasks.clear();
    calendar.Reset(num_backends, servers);
    events.Clear();
    requests.clear();
    free_requests.clear();
    responses.Reset();
    crash_scratch.clear();
    completed_reads = 0;
    completed_updates = 0;
    failed_requests = 0;
    rejected_requests = 0;
    retried_requests = 0;
    redispatched_requests = 0;
    lag_tasks_drained = 0;
    rotation = 0;
    dead_count = 0;
    last_completion = 0.0;
    timeline_bin = 0.0;
    timeline.clear();
    class_counts.Clear();
    next_seq = 0;
    arrival_time = 0.0;
    arrival_horizon = 0.0;
    arrival_mean = 0.0;
    arrival_seq = 0;
    arrivals_active = false;
  }

  /// Takes a fresh request slot from the pool.
  uint64_t AllocRequest() {
    uint64_t id;
    if (!free_requests.empty()) {
      id = free_requests.back();
      free_requests.pop_back();
    } else {
      id = requests.size();
      requests.push_back(Request{});
    }
    requests[id] = Request{};
    return id;
  }

  /// Returns a terminal request's slot to the pool. Callers guarantee no
  /// outstanding event references the id (terminal means the last
  /// completion/retry path for it just resolved).
  void FreeRequest(uint64_t id) { free_requests.push_back(id); }

  /// Terminal success bookkeeping for one logical request; recycles its
  /// slot.
  void FinishLogical(uint64_t request_id, double now) {
    const Request& req = requests[request_id];
    responses.Add(now - req.submit_time);
    last_completion = now;
    if (timeline_bin > 0.0) {
      const size_t bin = static_cast<size_t>(now / timeline_bin);
      if (bin >= timeline.size()) timeline.resize(bin + 1, 0);
      ++timeline[bin];
    }
    if (!class_counts.empty()) ++class_counts[req.class_index];
    if (req.is_update) {
      ++completed_updates;
    } else {
      ++completed_reads;
    }
    FreeRequest(request_id);
  }

  /// One replica of \p request_id executed to completion; updates counters
  /// when the logical request is done. Returns true iff this call finished
  /// the logical request.
  bool AccountCompletion(uint64_t request_id, double now) {
    Request& req = requests[request_id];
    ++req.completed_replicas;
    if (--req.remaining_replicas != 0) return false;
    FinishLogical(request_id, now);
    return true;
  }
};

Result<ClusterSimulator> ClusterSimulator::Create(
    const Classification& cls, const Allocation& alloc,
    const std::vector<BackendSpec>& backends, const SimulationConfig& config) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(ValidateAllocationShape(cls, alloc, backends.size()));
  QCAP_ASSIGN_OR_RETURN(Scheduler scheduler, Scheduler::Build(cls, alloc));
  // Execution frequency of a class is its weight divided by the mean cost
  // of one execution (weight = frequency x cost share); reads first, then
  // updates, as class indices run. The sampler keeps this vector and
  // stores its prefix sums behind the frequencies, so reserve room for both.
  std::vector<double> frequency;
  frequency.reserve(2 * cls.NumClasses());
  for (const auto& c : cls.reads) {
    frequency.push_back(c.weight / std::max(c.mean_cost, 1e-12));
  }
  for (const auto& c : cls.updates) {
    frequency.push_back(c.weight / std::max(c.mean_cost, 1e-12));
  }
  const auto name = [&cls](size_t i) {
    const QueryClass& c = i < cls.reads.size()
                              ? cls.reads[i]
                              : cls.updates[i - cls.reads.size()];
    return "class '" + c.label + "' execution frequency";
  };
  QCAP_ASSIGN_OR_RETURN(DiscreteSampler class_sampler,
                        DiscreteSampler::Create(std::move(frequency), name));
  return ClusterSimulator(cls, alloc, backends, config, std::move(scheduler),
                          std::move(class_sampler));
}

ClusterSimulator::ClusterSimulator(ClusterSimulator&&) noexcept = default;
ClusterSimulator::~ClusterSimulator() = default;

ClusterSimulator::ClusterSimulator(const Classification& cls,
                                   const Allocation& alloc,
                                   const std::vector<BackendSpec>& backends,
                                   const SimulationConfig& config,
                                   Scheduler scheduler,
                                   DiscreteSampler class_sampler)
    : cls_(cls),
      alloc_(alloc),
      backends_(backends),
      config_(config),
      scheduler_(std::move(scheduler)),
      class_sampler_(std::move(class_sampler)) {
  engine::CostModel model(config_.cost_params);
  service_flat_ = model.ServiceMatrix(cls_, alloc_, backends_);
  if (config_.rowa_fanout_overhead > 0.0) {
    const size_t n = backends_.size();
    for (size_t u = 0; u < cls_.updates.size(); ++u) {
      const size_t fanout = scheduler_.UpdateTargets(u).size();
      if (fanout > 1) {
        const double factor = 1.0 + config_.rowa_fanout_overhead *
                                        static_cast<double>(fanout - 1);
        double* row = service_flat_.data() + (cls_.reads.size() + u) * n;
        for (size_t b = 0; b < n; ++b) row[b] *= factor;
      }
    }
  }
  // The fault schedule is per-config: validate and sort it once here
  // instead of on every run.
  fault_status_ = config_.fault_plan.Validate(backends_.size());
  if (fault_status_.ok()) faults_ = config_.fault_plan.Sorted();
}

// qcap-lint: hot-path begin
ClusterSimulator::DispatchOutcome ClusterSimulator::Dispatch(
    RunState* state, uint64_t request_id, size_t class_index,
    double now) const {
  const bool is_update = class_index >= cls_.reads.size();
  Request& req = state->requests[request_id];
  req.class_index = class_index;
  // Response time spans all attempts: the submit instant is fixed at the
  // first dispatch, retries only add to the measured latency.
  if (req.attempts == 0) req.submit_time = now;
  ++req.attempts;
  req.is_update = is_update;

  const double* service_row =
      service_flat_.data() + class_index * backends_.size();
  if (is_update) {
    const size_t u = class_index - cls_.reads.size();
    const auto& targets = scheduler_.UpdateTargets(u);
    size_t alive_count = targets.size();
    if (state->dead_count != 0) {
      alive_count = 0;
      for (size_t b : targets) {
        if (state->alive[b]) ++alive_count;
      }
      if (alive_count == 0) {
        ++state->rejected_requests;
        state->FreeRequest(request_id);
        return DispatchOutcome::kRejected;
      }
    }
    const bool synchronous = config_.propagation == UpdatePropagation::kRowa;
    req.remaining_replicas = synchronous ? alive_count : 1;
    req.completed_replicas = 0;
    size_t alive_seen = 0;
    for (size_t b : targets) {
      double service = service_row[b];
      if (state->dead_count != 0 && !state->alive[b]) {
        // Down replica: it owes this application once it rejoins, so the
        // update commits on the survivors and leaves replica lag behind.
        // qcap-lint: allow(hot-path-growth) -- lag is bounded by updates missed while the replica is down; capacity is kept across recoveries
        state->lag[b].push_back(BackendTask{kBackgroundRequest, service, now});
        continue;
      }
      uint64_t task_request = request_id;
      if (synchronous || alive_seen == 0) {
        // Gates the client's response.
      } else {
        // Asynchronous secondary application: loads the backend but does
        // not gate the client's response.
        task_request = kBackgroundRequest;
        if (config_.propagation == UpdatePropagation::kLazy) {
          service *= kLazyApplyFactor;
        }
      }
      ++alive_seen;
      state->nodes[b].Enqueue(BackendTask{task_request, service, now});
      state->pending.SetKey(b, state->nodes[b].pending());
      if (state->nodes[b].StartableAt(now)) StartReady(state, b, now);
    }
  } else {
    // Least-pending-first over the class's *surviving* capable backends;
    // ties rotate round-robin so equal queues share the load. The pending
    // index answers the rotated scan's exact winner in O(log B).
    const size_t start =
        state->rotation % state->pending.NumCandidates(class_index);
    const size_t best = state->pending.Pick(class_index, start);
    if (best == PendingIndex::kNone) {
      ++state->rejected_requests;
      state->FreeRequest(request_id);
      return DispatchOutcome::kRejected;
    }
    // Advance only on success: a rejected dispatch used no candidate, so
    // it must not shift later tie-breaks.
    ++state->rotation;
    req.remaining_replicas = 1;
    req.completed_replicas = 0;
    state->nodes[best].Enqueue(
        BackendTask{request_id, service_row[best], now});
    state->pending.SetKey(best, state->nodes[best].pending());
    if (state->nodes[best].StartableAt(now)) StartReady(state, best, now);
  }
  return DispatchOutcome::kDispatched;
}

void ClusterSimulator::StartReady(RunState* state, size_t backend,
                                  double now) const {
  if (!state->alive[backend]) return;
  BackendNode& node = state->nodes[backend];
  const double scale = state->degrade[backend];
  const uint64_t epoch = state->epoch[backend];
  const size_t base_slot = backend * config_.servers_per_backend;
  BackendTask task;
  double completion = 0.0;
  size_t server = 0;
  while (node.TryStart(now, &task, &completion, scale, &server)) {
    const uint64_t seq = state->NextSeq();
    const size_t slot = base_slot + server;
    if (!state->calendar.occupied(slot)) {
      state->calendar.Schedule(
          slot, backend, completion, seq,
          ServerEvent{task.request_id, static_cast<uint32_t>(epoch),
                      static_cast<uint32_t>(backend),
                      task.service_seconds * scale, task.service_seconds});
    } else {
      // Boundary-time double booking: the server's previous completion is
      // due exactly now but has not popped yet, and the earliest-free scan
      // re-picked the server. The second completion overflows to the aux
      // queue; both sources merge by (time, seq), so pop order is the same
      // as a single calendar's.
      SimEvent ev;
      ev.time = completion;
      ev.seq = seq;
      ev.kind = SimEvent::Kind::kCompletion;
      ev.backend = backend;
      ev.request_id = task.request_id;
      ev.epoch = epoch;
      ev.busy_seconds = task.service_seconds * scale;
      ev.base_service = task.service_seconds;
      state->events.Push(ev);
    }
  }
}
// qcap-lint: hot-path end

bool ClusterSimulator::ScheduleRetry(RunState* state, uint64_t request_id,
                                     double now) const {
  Request& req = state->requests[request_id];
  if (req.attempts >= config_.retry.max_attempts) {
    ++state->failed_requests;
    state->FreeRequest(request_id);
    return true;
  }
  // Exponential backoff, simulated as added delay before the re-dispatch.
  // Incremental: multiplying the previous delay once reproduces the
  // left-associative base * multiplier^(attempts-1) product bit-for-bit.
  req.backoff_seconds = req.attempts <= 1
                            ? kBaseBackoffSeconds
                            : req.backoff_seconds * kBackoffMultiplier;
  ++state->retried_requests;
  SimEvent ev;
  ev.time = now + req.backoff_seconds;
  ev.seq = state->NextSeq();
  ev.kind = SimEvent::Kind::kRetry;
  ev.request_id = request_id;
  state->events.Push(ev);
  return false;
}

bool ClusterSimulator::HandleLostWork(RunState* state, uint64_t request_id,
                                      size_t backend, double service_seconds,
                                      double now) const {
  Request& req = state->requests[request_id];
  if (req.is_update) {
    // The crashed replica owes this application after recovery. (If the
    // attempt ends up with *no* surviving replica it is retried in full,
    // which conservatively re-applies on re-dispatch; the rare overlap
    // only inflates recovery-drain work, never client-visible counters.)
    state->lag[backend].push_back(
        BackendTask{kBackgroundRequest, service_seconds, now});
    if (--req.remaining_replicas != 0) return false;
    if (req.completed_replicas > 0) {
      // The update committed on its surviving replicas; the client's
      // response is gated by the slowest of those, i.e. now.
      state->FinishLogical(request_id, now);
      return true;
    }
    // Every replica was destroyed before executing: retry the update.
    return ScheduleRetry(state, request_id, now);
  }
  // Read: the single copy of the work is gone; re-dispatch elsewhere.
  return ScheduleRetry(state, request_id, now);
}

size_t ClusterSimulator::ApplyFault(RunState* state, const FaultEvent& fault,
                                    double now) const {
  const size_t b = fault.backend;
  switch (fault.kind) {
    case FaultEvent::Kind::kCrash: {
      if (!state->alive[b]) return 0;
      state->alive[b] = 0;
      ++state->dead_count;
      ++state->epoch[b];
      state->degrade[b] = 1.0;
      state->pending.SetKey(b, PendingIndex::kDeadKey);
      // Displace the backend's outstanding completions from the calendar
      // into the aux queue, unchanged: they keep their original (time, seq)
      // and the epoch their task started under, so they pop at the same
      // point in the global order and are recognized as stale there
      // (timeout detection), exactly as before.
      const size_t servers = config_.servers_per_backend;
      for (size_t j = 0; j < servers; ++j) {
        const size_t slot = b * servers + j;
        if (!state->calendar.occupied(slot)) continue;
        const ServerEvent& pending_event = state->calendar.event(slot);
        SimEvent ev;
        ev.time = state->calendar.slot_time(slot);
        ev.seq = state->calendar.slot_seq(slot);
        ev.kind = SimEvent::Kind::kCompletion;
        ev.backend = b;
        ev.request_id = pending_event.request_id;
        ev.epoch = pending_event.epoch;
        ev.busy_seconds = pending_event.busy_seconds;
        ev.base_service = pending_event.base_service;
        state->events.Push(ev);
        state->calendar.Clear(slot, b);
      }
      size_t terminals = 0;
      // Queued work is re-dispatched immediately (the scheduler observes
      // the node die); in-flight work is handled when its stale completion
      // event pops (timeout detection).
      state->crash_scratch.clear();
      state->nodes[b].Crash(&state->crash_scratch);
      for (const BackendTask& task : state->crash_scratch) {
        if (task.request_id == kBackgroundRequest) {
          state->lag[b].push_back(
              BackendTask{kBackgroundRequest, task.service_seconds, now});
          continue;
        }
        if (HandleLostWork(state, task.request_id, b, task.service_seconds,
                           now)) {
          ++terminals;
        }
      }
      return terminals;
    }
    case FaultEvent::Kind::kRecover: {
      if (state->alive[b]) return 0;
      state->alive[b] = 1;
      --state->dead_count;
      state->degrade[b] = 1.0;
      // The replacement first drains the replica lag accumulated while
      // down; its FIFO queue guarantees lag runs before new arrivals, and
      // least-pending dispatch steers reads away until it has caught up.
      state->lag_tasks_drained += state->lag[b].size();
      for (const BackendTask& task : state->lag[b]) {
        state->nodes[b].Enqueue(
            BackendTask{kBackgroundRequest, task.service_seconds, now});
      }
      state->lag[b].clear();
      StartReady(state, b, now);
      state->pending.SetKey(b, state->nodes[b].pending());
      return 0;
    }
    case FaultEvent::Kind::kDegrade: {
      if (!state->alive[b]) return 0;
      // Applies to tasks *started* from now on; running tasks finish at
      // their already-scheduled completion.
      state->degrade[b] = fault.factor;
      return 0;
    }
  }
  return 0;
}

Status ClusterSimulator::InitRun(RunState* state) const {
  if (config_.retry.max_attempts == 0) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  QCAP_RETURN_NOT_OK(fault_status_);

  state->Reset(backends_.size(), config_.servers_per_backend);
  state->pending = scheduler_.pending_index();
  state->pending.ResetKeys();
  state->timeline_bin = config_.timeline_bin_seconds;
  if (config_.track_class_mix) {
    state->class_counts.Assign(&state->arena, cls_.NumClasses(), 0);
  }
  state->faults = faults_;
  state->events.Reserve(state->faults.size() + 64);
  // Fault events enter the queue first, so a fault scheduled at exactly an
  // arrival's timestamp applies before the arrival is dispatched.
  for (size_t i = 0; i < state->faults.size(); ++i) {
    SimEvent ev;
    ev.time = state->faults[i].time_seconds;
    ev.seq = state->NextSeq();
    ev.kind = SimEvent::Kind::kFault;
    ev.request_id = i;
    state->events.Push(ev);
  }
  return Status::OK();
}

void ClusterSimulator::ScheduleNextArrival(RunState* state) const {
  if (!state->arrivals_active) return;
  state->arrival_time +=
      state->arrival_rng.NextExponential(state->arrival_mean);
  if (state->arrival_time >= state->arrival_horizon) {
    state->arrivals_active = false;
    return;
  }
  SimEvent ev;
  ev.time = state->arrival_time;
  // Arrivals occupy the seq band reserved for them at run start, so the
  // (time, seq) order is exactly what the eager generator produced.
  ev.seq = state->arrival_seq++;
  ev.kind = SimEvent::Kind::kArrival;
  state->events.Push(ev);
}

// qcap-lint: hot-path begin
template <typename IssueNext>
void ClusterSimulator::DrainEvents(RunState* state, Rng* rng,
                                   const IssueNext& issue_next) const {
  // One replica of \p request_id (running on \p backend) reached its
  // completion time. Shared by both calendar paths: in-service completions
  // popped from the ServerCalendar and aux-queue kCompletion events
  // (crash-displaced or boundary-overflowed), which carry identical fields.
  const auto handle_completion = [&](size_t backend, uint64_t request_id,
                                     uint64_t epoch, double busy_seconds,
                                     double base_service, double now) {
    if (epoch != state->epoch[backend]) {
      // The task's work was destroyed by a crash after it started; the
      // client notices when the response fails to arrive (now).
      if (request_id == kBackgroundRequest) {
        // qcap-lint: allow(hot-path-growth) -- lag is bounded by work lost to the crash; capacity is kept across recoveries
        state->lag[backend].push_back(
            BackendTask{kBackgroundRequest, base_service, now});
      } else if (HandleLostWork(state, request_id, backend, base_service,
                                now)) {
        issue_next(now);
      }
      return;
    }
    state->nodes[backend].FinishOne(busy_seconds);
    state->pending.SetKey(backend, state->nodes[backend].pending());
    if (request_id != kBackgroundRequest &&
        state->AccountCompletion(request_id, now)) {
      issue_next(now);
    }
    StartReady(state, backend, now);
  };

  // Merge the two calendars by (time, seq): the combined pop order is
  // exactly what a single event heap over all events would produce.
  SimEvent ev;
  while (true) {
    const ServerCalendar::Key calendar_key = state->calendar.top_key();
    if (!state->events.empty()) {
      if (ServerCalendar::MakeKey(state->events.top_time(),
                                  state->events.top_seq()) < calendar_key) {
        state->events.Pop(&ev);
        const double now = ev.time;
        switch (ev.kind) {
          case SimEvent::Kind::kArrival: {
            const uint64_t id = state->AllocRequest();
            if (Dispatch(state, id, class_sampler_.Sample(rng), now) ==
                DispatchOutcome::kRejected) {
              issue_next(now);
            }
            ScheduleNextArrival(state);
            break;
          }
          case SimEvent::Kind::kFault: {
            const size_t terminals =
                ApplyFault(state, state->faults[ev.request_id], now);
            for (size_t i = 0; i < terminals; ++i) issue_next(now);
            break;
          }
          case SimEvent::Kind::kRetry: {
            const size_t class_index =
                state->requests[ev.request_id].class_index;
            if (Dispatch(state, ev.request_id, class_index, now) ==
                DispatchOutcome::kDispatched) {
              ++state->redispatched_requests;
            } else {
              issue_next(now);
            }
            break;
          }
          case SimEvent::Kind::kCompletion: {
            handle_completion(ev.backend, ev.request_id, ev.epoch,
                              ev.busy_seconds, ev.base_service, now);
            break;
          }
        }
        continue;
      }
    }
    if (calendar_key == ServerCalendar::kIdleKey) break;
    const size_t slot = state->calendar.top_server();
    // The slot's payload is read at the call (arguments pass by value)
    // before the handler can rebook the slot, so no copy is needed.
    const ServerEvent& completion = state->calendar.event(slot);
    state->calendar.Clear(slot, completion.backend);
    handle_completion(completion.backend, completion.request_id,
                      completion.epoch, completion.busy_seconds,
                      completion.base_service,
                      std::bit_cast<double>(
                          static_cast<uint64_t>(calendar_key >> 64)));
  }
}
// qcap-lint: hot-path end

void ClusterSimulator::FinishInto(RunState* state, SimStats* out) const {
  out->duration_seconds = state->last_completion;
  out->completed_reads = state->completed_reads;
  out->completed_updates = state->completed_updates;
  out->failed_requests = state->failed_requests;
  out->rejected_requests = state->rejected_requests;
  out->retried_requests = state->retried_requests;
  out->redispatched_requests = state->redispatched_requests;
  out->lag_tasks_drained = state->lag_tasks_drained;
  out->throughput = out->duration_seconds > 0.0
                        ? static_cast<double>(out->completed_total()) /
                              out->duration_seconds
                        : 0.0;
  out->avg_response_seconds = state->responses.mean();
  out->max_response_seconds = state->responses.max();
  state->responses.Percentiles(
      &state->percentile_scratch, &out->p50_response_seconds,
      &out->p95_response_seconds, &out->p99_response_seconds);
  const uint64_t offered = out->completed_total() + out->failed_requests +
                           out->rejected_requests;
  out->availability =
      offered > 0
          ? static_cast<double>(out->completed_total()) /
                static_cast<double>(offered)
          : 1.0;
  out->timeline_bin_seconds = state->timeline_bin;
  out->timeline_completions = state->timeline;
  out->class_completions.assign(state->class_counts.begin(),
                                state->class_counts.end());
  out->backend_busy_seconds.clear();
  out->backend_busy_seconds.reserve(state->nodes.size());
  for (const BackendNode& node : state->nodes) {
    out->backend_busy_seconds.push_back(node.busy_seconds());
  }
}

Status ClusterSimulator::RunClosedInto(RunState* state, uint64_t seed,
                                       uint64_t num_requests,
                                       size_t concurrency,
                                       SimStats* out) const {
  if (num_requests == 0 || concurrency == 0) {
    return Status::InvalidArgument("num_requests and concurrency must be > 0");
  }
  Rng rng(seed);
  QCAP_RETURN_NOT_OK(InitRun(state));
  state->responses.Reserve(num_requests);

  uint64_t issued = 0;
  // Keeps the concurrency window full: every terminal outcome (completed,
  // failed, rejected) admits the next request; rejected dispatches are
  // terminal immediately, so the window skips past them.
  const auto issue_next = [&](double now) {
    while (issued < num_requests) {
      ++issued;
      const uint64_t id = state->AllocRequest();
      if (Dispatch(state, id, class_sampler_.Sample(&rng), now) ==
          DispatchOutcome::kDispatched) {
        break;
      }
    }
  };
  const uint64_t initial = std::min<uint64_t>(concurrency, num_requests);
  for (uint64_t i = 0; i < initial; ++i) issue_next(0.0);

  DrainEvents(state, &rng, issue_next);
  FinishInto(state, out);
  return Status::OK();
}

Status ClusterSimulator::RunOpenInto(RunState* state, uint64_t seed,
                                     double duration_seconds,
                                     double arrival_rate,
                                     SimStats* out) const {
  if (!std::isfinite(duration_seconds) || !std::isfinite(arrival_rate) ||
      duration_seconds <= 0.0 || arrival_rate <= 0.0) {
    return Status::InvalidArgument(
        "duration and arrival rate must be finite and > 0");
  }
  QCAP_RETURN_NOT_OK(InitRun(state));

  // Lazy Poisson arrivals, bit-identical to the eager pre-generated list:
  // a probe copy of the seeded RNG fast-forwards through every arrival
  // draw (O(1) memory) to (a) count the arrivals N, reserving their seq
  // band so completion seqs start at the same values as before, and (b)
  // position the class-sampling stream exactly where it started when
  // arrivals were drawn up front. The arrival stream itself restarts from
  // the seed and is re-drawn one arrival at a time as events pop.
  state->arrival_mean = 1.0 / arrival_rate;
  state->arrival_horizon = duration_seconds;
  state->arrival_rng = Rng(seed);
  Rng class_rng(seed);
  uint64_t num_arrivals = 0;
  {
    double t = 0.0;
    while (true) {
      t += class_rng.NextExponential(state->arrival_mean);
      if (t >= duration_seconds) break;
      ++num_arrivals;
    }
  }
  state->arrival_seq = state->next_seq;
  state->next_seq += num_arrivals;
  state->arrivals_active = true;
  state->arrival_time = 0.0;
  state->responses.Reserve(num_arrivals);
  ScheduleNextArrival(state);

  DrainEvents(state, &class_rng, [](double) {});
  FinishInto(state, out);
  // Open-loop throughput is measured over the arrival window.
  out->duration_seconds = std::max(duration_seconds, state->last_completion);
  out->throughput = out->duration_seconds > 0.0
                        ? static_cast<double>(out->completed_total()) /
                              out->duration_seconds
                        : 0.0;
  return Status::OK();
}

ClusterSimulator::RunState* ClusterSimulator::Scratch() {
  if (!scratch_) scratch_ = std::make_unique<RunState>();
  return scratch_.get();
}

Result<SimStats> ClusterSimulator::RunClosed(uint64_t num_requests,
                                             size_t concurrency) {
  SimStats out;
  QCAP_RETURN_NOT_OK(
      RunClosedInto(Scratch(), config_.seed, num_requests, concurrency, &out));
  return out;
}

Status ClusterSimulator::RunClosed(uint64_t num_requests, size_t concurrency,
                                   SimStats* out) {
  return RunClosedInto(Scratch(), config_.seed, num_requests, concurrency,
                       out);
}

Result<SimStats> ClusterSimulator::RunOpen(double duration_seconds,
                                           double arrival_rate) {
  SimStats out;
  QCAP_RETURN_NOT_OK(RunOpenInto(Scratch(), config_.seed, duration_seconds,
                                 arrival_rate, &out));
  return out;
}

Status ClusterSimulator::RunOpen(double duration_seconds, double arrival_rate,
                                 SimStats* out) {
  return RunOpenInto(Scratch(), config_.seed, duration_seconds, arrival_rate,
                     out);
}

namespace {

/// Shared sweep driver: \p run_one(state, seed, &stats) executes one
/// replication. Each replication is fully independent (own RunState, own
/// RNGs) and writes only its submission-order slot, so results are
/// bit-identical at any thread count.
template <typename RunOne>
Result<std::vector<SimStats>> RunSweep(uint64_t base_seed,
                                       const SweepOptions& sweep,
                                       const RunOne& run_one) {
  if (sweep.repeat == 0) {
    return Status::InvalidArgument("sweep.repeat must be >= 1");
  }
  std::vector<SimStats> results(sweep.repeat);
  std::vector<Status> statuses(sweep.repeat);
  ThreadPool* pool = sweep.pool;
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr && sweep.threads > 1 && sweep.repeat > 1) {
    owned = std::make_unique<ThreadPool>(sweep.threads);
    pool = owned.get();
  }
  ParallelFor(pool, sweep.repeat, [&](size_t i) {
    statuses[i] = run_one(base_seed + static_cast<uint64_t>(i), &results[i]);
  });
  // Deterministic error reporting: the lowest-index failure wins.
  for (const Status& status : statuses) {
    QCAP_RETURN_NOT_OK(status);
  }
  return results;
}

}  // namespace

Result<std::vector<SimStats>> ClusterSimulator::RunClosedSweep(
    uint64_t num_requests, size_t concurrency,
    const SweepOptions& sweep) const {
  return RunSweep(config_.seed, sweep,
                  [&](uint64_t seed, SimStats* out) {
                    RunState state;
                    return RunClosedInto(&state, seed, num_requests,
                                         concurrency, out);
                  });
}

Result<std::vector<SimStats>> ClusterSimulator::RunOpenSweep(
    double duration_seconds, double arrival_rate,
    const SweepOptions& sweep) const {
  return RunSweep(config_.seed, sweep,
                  [&](uint64_t seed, SimStats* out) {
                    RunState state;
                    return RunOpenInto(&state, seed, duration_seconds,
                                       arrival_rate, out);
                  });
}

}  // namespace qcap

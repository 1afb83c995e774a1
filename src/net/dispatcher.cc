#include "net/dispatcher.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>

#include "cluster/pending_index.h"
#include "common/strings.h"

namespace qcap::net {

namespace {

/// Parses a class token `R<i>` / `U<j>`.
bool ParseClassToken(std::string_view token, bool* is_read, size_t* index) {
  if (token.size() < 2 || (token[0] != 'R' && token[0] != 'U')) return false;
  const std::optional<uint64_t> parsed = ParseUint(token.substr(1));
  if (!parsed) return false;
  *is_read = token[0] == 'R';
  *index = *parsed;
  return true;
}

/// Shortest round-trippable rendering for metrics values (latencies are
/// microseconds; fixed 3-digit formatting would flatten them to 0).
std::string FormatMetric(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Appends the decimal \p v to \p out without a temporary string.
void AppendUint(std::string* out, uint64_t v) {
  char buf[20];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

constexpr size_t kDead = static_cast<size_t>(PendingIndex::kDeadKey);

}  // namespace

// The protocol grammar allows one or more separators; leading/trailing
// whitespace is ignored.
Dispatcher::Fields::Fields(std::string_view line) {
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i == start) continue;
    if (count_ < kMax) at_[count_] = line.substr(start, i - start);
    ++count_;
  }
}

Result<std::unique_ptr<Dispatcher>> Dispatcher::Create(
    const Classification& cls, const Allocation& alloc,
    const ServingLimits& limits) {
  QCAP_ASSIGN_OR_RETURN(Scheduler scheduler, Scheduler::Build(cls, alloc));
  return std::unique_ptr<Dispatcher>(
      new Dispatcher(std::move(scheduler), alloc.num_backends(),
                     cls.reads.size(), cls.updates.size(), limits));
}

Dispatcher::Dispatcher(Scheduler scheduler, size_t num_backends,
                       size_t num_reads, size_t num_updates,
                       const ServingLimits& limits)
    : scheduler_(std::move(scheduler)),
      num_backends_(num_backends),
      num_reads_(num_reads),
      num_updates_(num_updates),
      limits_(limits),
      pending_(num_backends, 0),
      alive_(num_backends, true),
      degrade_(num_backends, 1.0) {
  if (limits.rate_limit_qps > 0.0) {
    const double burst = limits.rate_limit_burst > 0.0
                             ? limits.rate_limit_burst
                             : std::max(1.0, limits.rate_limit_qps);
    buckets_.reserve(num_reads_ + num_updates_);
    for (size_t c = 0; c < num_reads_ + num_updates_; ++c) {
      buckets_.emplace_back(limits.rate_limit_qps, burst);
    }
  }
}

Dispatcher::Reply Dispatcher::Execute(std::string_view request,
                                      double now_seconds) {
  MutexLock guard(lock_);
  ++counters_.requests_total;
  const Fields fields(request);
  auto bad = [this](const std::string& msg) {
    ++counters_.bad_requests;
    return Reply{"ERR BAD_REQUEST " + msg, false, false};
  };
  if (fields.size() == 0) return bad("empty request");
  const std::string_view verb = fields[0];
  if (verb == "SUBMIT") return Submit(fields, now_seconds);
  if (verb == "DONE") return Done(fields);
  if (verb == "STATS") return Reply{StatsLine(), false, false};
  if (verb == "METRICS") {
    return Reply{"OK METRICS\n" + MetricsText(now_seconds), false, false};
  }
  if (verb == "HEALTH") return Reply{HealthLine(now_seconds), false, false};
  if (verb == "FAULT") return Fault(fields);
  if (verb == "RELOAD") return Reload(fields);
  if (verb == "QUIT") return Reply{"OK BYE", true, false};
  return bad("unknown verb '" + std::string(verb) + "'");
}

Dispatcher::Reply Dispatcher::Submit(const Fields& args, double now_seconds) {
  bool is_read = false;
  size_t index = 0;
  if (args.size() != 2 || !ParseClassToken(args[1], &is_read, &index)) {
    ++counters_.bad_requests;
    return {"ERR BAD_REQUEST usage: SUBMIT R<i>|U<j>", false, false};
  }
  const size_t limit = is_read ? num_reads_ : num_updates_;
  if (index >= limit) {
    ++counters_.bad_requests;
    return {"ERR BAD_CLASS " + std::string(args[1]) + " out of range (have " +
                std::to_string(num_reads_) + " reads, " +
                std::to_string(num_updates_) + " updates)",
            false, false};
  }
  if (!buckets_.empty()) {
    const size_t bucket = is_read ? index : num_reads_ + index;
    if (!buckets_[bucket].TryAcquire(now_seconds)) {
      ++counters_.rejected;
      return {"ERR RATE_LIMITED class=" + std::string(args[1]), false, false};
    }
  }
  if (is_read) {
    const size_t pick = scheduler_.PickReadBackend(index, pending_);
    if (pick == PendingIndex::kNone) {
      ++counters_.unservable;
      return {"ERR UNSERVABLE no live backend holds " + std::string(args[1]) +
                  "'s data",
              false, true};
    }
    ++pending_[pick];
    ++counters_.reads_routed;
    Reply reply{"OK BACKEND ", false, true};
    AppendUint(&reply.text, pick);
    return reply;
  }
  const std::vector<size_t>& targets = scheduler_.UpdateTargets(index);
  Reply reply{"OK BACKENDS", false, true};
  size_t routed = 0;
  for (size_t t : targets) {
    if (!alive_[t]) continue;  // dead replica: owes the update as lag
    ++pending_[t];
    ++routed;
    reply.text += ' ';
    AppendUint(&reply.text, t);
  }
  if (routed == 0) {
    ++counters_.unservable;
    return {"ERR UNSERVABLE every replica of " + std::string(args[1]) +
                " is down",
            false, true};
  }
  ++counters_.updates_routed;
  return reply;
}

Dispatcher::Reply Dispatcher::Done(const Fields& args) {
  const std::optional<uint64_t> parsed =
      args.size() == 2 ? ParseUint(args[1]) : std::nullopt;
  if (!parsed) {
    ++counters_.bad_requests;
    return {"ERR BAD_REQUEST usage: DONE <backend>", false, false};
  }
  const size_t backend = *parsed;
  if (backend >= num_backends_) {
    ++counters_.bad_requests;
    return {"ERR BAD_BACKEND " + std::string(args[1]) + " out of range (have " +
                std::to_string(num_backends_) + ")",
            false, false};
  }
  // A completion for a crashed backend, or one the server never routed
  // (e.g. the backend crashed and its depth was reset), is acknowledged
  // but changes nothing — the client cannot know the server lost the slot.
  if (!alive_[backend] || pending_[backend] == 0) {
    return {"OK DONE stale", false, false};
  }
  --pending_[backend];
  ++counters_.done_acks;
  return {"OK DONE", false, false};
}

Dispatcher::Reply Dispatcher::Fault(const Fields& args) {
  const bool is_degrade = args.size() >= 2 && args[1] == "DEGRADE";
  const size_t want_args = is_degrade ? 4u : 3u;
  const std::optional<uint64_t> parsed =
      args.size() == want_args ? ParseUint(args[2]) : std::nullopt;
  if (!parsed ||
      (args[1] != "CRASH" && args[1] != "RECOVER" && !is_degrade)) {
    ++counters_.bad_requests;
    return {"ERR BAD_REQUEST usage: FAULT CRASH|RECOVER <backend> | "
            "FAULT DEGRADE <backend> <factor>",
            false, false};
  }
  const size_t backend = *parsed;
  if (backend >= num_backends_) {
    ++counters_.bad_requests;
    return {"ERR BAD_BACKEND " + std::string(args[2]) + " out of range (have " +
                std::to_string(num_backends_) + ")",
            false, false};
  }
  if (args[1] == "CRASH") {
    // Idempotent: crashing a dead backend re-asserts the state. The dead
    // key makes the backend lose every least-pending comparison, exactly
    // like the simulator's crash handling (which also clears any straggler
    // state on crash).
    alive_[backend] = false;
    pending_[backend] = kDead;
    degrade_[backend] = 1.0;
    return {"OK FAULT crashed " + std::to_string(backend), false, false};
  }
  if (is_degrade) {
    // Straggler injection, mirroring FaultEvent::kDegrade: the backend
    // keeps serving at `factor` times its nominal service time; 1 restores
    // full speed. Routing policy is unchanged (the simulator's dispatch
    // also ignores degrade — slow backends shed load through their pending
    // depth), so this is observability plus parity with FaultPlan chaos
    // scripts, exposed as qcap_backend_degrade in METRICS.
    const std::optional<double> factor = ParseFiniteDouble(args[3]);
    if (!factor || *factor <= 0.0) {
      ++counters_.bad_requests;
      return {"ERR BAD_REQUEST degrade factor must be finite and > 0", false,
              false};
    }
    if (!alive_[backend]) {
      ++counters_.bad_requests;
      return {"ERR BAD_REQUEST cannot degrade a crashed backend", false,
              false};
    }
    degrade_[backend] = *factor;
    return {"OK FAULT degraded " + std::to_string(backend) + " factor " +
                FormatMetric(*factor),
            false, false};
  }
  // Recovery rejoins a crashed backend with an empty queue (the crash
  // destroyed its work) and at full speed. A live backend is left as it
  // is, like the simulator's recover: its queued work and its straggler
  // factor are still real, and DONEs for that work must still count.
  if (!alive_[backend]) {
    alive_[backend] = true;
    pending_[backend] = 0;
    degrade_[backend] = 1.0;
  }
  return {"OK FAULT recovered " + std::to_string(backend), false, false};
}

Dispatcher::Reply Dispatcher::Reload(const Fields& args) {
  if (args.size() > 2) {
    ++counters_.bad_requests;
    return {"ERR BAD_REQUEST usage: RELOAD [tag]", false, false};
  }
  if (!reload_provider_) {
    return {"ERR NO_PROVIDER this server has no reload provider installed",
            false, false};
  }
  const std::string_view tag = args.size() == 2 ? args[1] : "";
  // The provider runs under the routing lock: the poll loop is the only
  // traffic source, and it is the caller — a swap mid-request cannot
  // happen. Embedders registering slow providers accept the serving pause
  // (documented in SERVING.md).
  Result<RoutingTable> table = reload_provider_(tag);
  if (!table.ok()) {
    return {"ERR RELOAD_FAILED " + table.status().message(), false, false};
  }
  if (Status swapped = SwapRoutingLocked(table->cls, table->alloc);
      !swapped.ok()) {
    return {"ERR RELOAD_FAILED " + swapped.message(), false, false};
  }
  return {"OK RELOAD generation=" + std::to_string(counters_.routing_generation) +
              " backends=" + std::to_string(num_backends_) +
              " read_classes=" + std::to_string(num_reads_) +
              " update_classes=" + std::to_string(num_updates_),
          false, false};
}

Status Dispatcher::SwapRoutingLocked(const Classification& cls,
                                     const Allocation& alloc) {
  QCAP_ASSIGN_OR_RETURN(Scheduler next, Scheduler::Build(cls, alloc));
  // Tie-rotation state survives the swap: for a class whose candidate set
  // is unchanged, the pick sequence continues exactly as if no swap had
  // happened (every SUBMIT R advances rotation by one, swapped or not).
  next.set_rotation(scheduler_.rotation());
  scheduler_ = std::move(next);
  const size_t backends = alloc.num_backends();
  // Backends are identified by index across the swap: surviving indices
  // keep their pending depth, liveness (a crashed backend stays crashed,
  // kDead key and all), and degrade factor; scale-out joiners start alive
  // and idle; scale-in leavers are dropped.
  pending_.resize(backends, 0);
  alive_.resize(backends, true);
  degrade_.resize(backends, 1.0);
  num_backends_ = backends;
  num_reads_ = cls.reads.size();
  num_updates_ = cls.updates.size();
  if (limits_.rate_limit_qps > 0.0) {
    // Existing classes keep their bucket fill (spent budget is workload
    // state, not routing state); new classes start with a full bucket.
    const double burst = limits_.rate_limit_burst > 0.0
                             ? limits_.rate_limit_burst
                             : std::max(1.0, limits_.rate_limit_qps);
    buckets_.resize(num_reads_ + num_updates_,
                    TokenBucket(limits_.rate_limit_qps, burst));
  }
  ++counters_.reloads;
  ++counters_.routing_generation;
  return Status::OK();
}

Status Dispatcher::SwapRouting(const Classification& cls,
                               const Allocation& alloc) {
  MutexLock guard(lock_);
  return SwapRoutingLocked(cls, alloc);
}

void Dispatcher::SetReloadProvider(ReloadProvider provider) {
  MutexLock guard(lock_);
  reload_provider_ = std::move(provider);
}

uint64_t Dispatcher::routing_generation() const {
  MutexLock guard(lock_);
  return counters_.routing_generation;
}

size_t Dispatcher::num_backends() const {
  MutexLock guard(lock_);
  return num_backends_;
}

size_t Dispatcher::num_read_classes() const {
  MutexLock guard(lock_);
  return num_reads_;
}

size_t Dispatcher::num_update_classes() const {
  MutexLock guard(lock_);
  return num_updates_;
}

std::string Dispatcher::StatsLine() const {
  std::string out = "OK STATS requests=" +
                    std::to_string(counters_.requests_total) +
                    " reads=" + std::to_string(counters_.reads_routed) +
                    " updates=" + std::to_string(counters_.updates_routed) +
                    " rejected=" + std::to_string(counters_.rejected) +
                    " unservable=" + std::to_string(counters_.unservable) +
                    " bad=" + std::to_string(counters_.bad_requests) +
                    " done=" + std::to_string(counters_.done_acks);
  out += " pending=";
  for (size_t b = 0; b < num_backends_; ++b) {
    if (b > 0) out += ',';
    out += std::to_string(alive_[b] ? pending_[b] : 0);
  }
  out += " alive=";
  for (size_t b = 0; b < num_backends_; ++b) {
    if (b > 0) out += ',';
    out += alive_[b] ? '1' : '0';
  }
  out += " generation=" + std::to_string(counters_.routing_generation);
  return out;
}

std::string Dispatcher::MetricsText(double now_seconds) {
  const uint64_t routed = counters_.reads_routed + counters_.updates_routed;
  const double qps =
      now_seconds > 0.0 ? static_cast<double>(routed) / now_seconds : 0.0;
  // On an idle server the histogram is empty and reports zeros.
  const double p50 = latency_.Percentile(0.50);
  const double p95 = latency_.Percentile(0.95);
  const double p99 = latency_.Percentile(0.99);
  std::string out;
  out.reserve(512 + num_backends_ * 64);
  out += "qcap_uptime_seconds " + FormatMetric(now_seconds) + "\n";
  out += "qcap_requests_total " + std::to_string(counters_.requests_total) +
         "\n";
  out += "qcap_reads_routed_total " + std::to_string(counters_.reads_routed) +
         "\n";
  out += "qcap_updates_routed_total " +
         std::to_string(counters_.updates_routed) + "\n";
  out += "qcap_rejected_total " + std::to_string(counters_.rejected) + "\n";
  out += "qcap_unservable_total " + std::to_string(counters_.unservable) +
         "\n";
  out += "qcap_bad_requests_total " + std::to_string(counters_.bad_requests) +
         "\n";
  out += "qcap_done_total " + std::to_string(counters_.done_acks) + "\n";
  out += "qcap_queries_per_second " + FormatMetric(qps) + "\n";
  out += "qcap_routing_latency_seconds{quantile=\"0.50\"} " +
         FormatMetric(p50) + "\n";
  out += "qcap_routing_latency_seconds{quantile=\"0.95\"} " +
         FormatMetric(p95) + "\n";
  out += "qcap_routing_latency_seconds{quantile=\"0.99\"} " +
         FormatMetric(p99) + "\n";
  out += "qcap_routing_latency_seconds_max " + FormatMetric(latency_.max()) +
         "\n";
  out += "qcap_routing_latency_samples " + std::to_string(latency_.count()) +
         "\n";
  for (size_t b = 0; b < num_backends_; ++b) {
    out += "qcap_backend_pending{backend=\"" + std::to_string(b) + "\"} " +
           std::to_string(alive_[b] ? pending_[b] : 0) + "\n";
  }
  for (size_t b = 0; b < num_backends_; ++b) {
    out += "qcap_backend_alive{backend=\"" + std::to_string(b) + "\"} " +
           std::string(alive_[b] ? "1" : "0") + "\n";
  }
  for (size_t b = 0; b < num_backends_; ++b) {
    out += "qcap_backend_degrade{backend=\"" + std::to_string(b) + "\"} " +
           FormatMetric(degrade_[b]) + "\n";
  }
  out += "qcap_routing_generation " +
         std::to_string(counters_.routing_generation) + "\n";
  out += "qcap_reloads_total " + std::to_string(counters_.reloads) + "\n";
  return out;
}

std::string Dispatcher::HealthLine(double now_seconds) const {
  size_t alive = 0;
  for (bool a : alive_) {
    if (a) ++alive;
  }
  return "OK HEALTH backends=" + std::to_string(num_backends_) +
         " alive=" + std::to_string(alive) +
         " read_classes=" + std::to_string(num_reads_) +
         " update_classes=" + std::to_string(num_updates_) +
         " uptime_seconds=" + FormatMetric(now_seconds) +
         " generation=" + std::to_string(counters_.routing_generation);
}

void Dispatcher::RecordRoutingLatency(double seconds) {
  MutexLock guard(lock_);
  latency_.Add(seconds);
}

ServingCounters Dispatcher::Snapshot() const {
  MutexLock guard(lock_);
  ServingCounters out = counters_;
  out.pending.resize(num_backends_);
  out.alive.resize(num_backends_);
  out.degrade.resize(num_backends_);
  for (size_t b = 0; b < num_backends_; ++b) {
    out.pending[b] = alive_[b] ? pending_[b] : 0;
    out.alive[b] = alive_[b];
    out.degrade[b] = degrade_[b];
  }
  return out;
}

}  // namespace qcap::net

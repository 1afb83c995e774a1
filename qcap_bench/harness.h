// Measurement plumbing shared by every qcap_bench workload: clocks, order
// statistics, the heap-allocation counter, process resource readings, and
// the span tracer behind `--trace`.
//
// Spans are recorded only by the harness, around its own calls into each
// module's public functions; nothing inside src/ is instrumented. A span
// carries a name ("<layer>.<stage>"), start and end, its parent span, and the
// request (operation) id it belongs to. Spans are aggregated per name as they
// close (count, total and self time, heap allocations, durations) and, up to
// a cap, kept in memory and written at exit as a Chrome trace-event file
// (open it in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace qcap::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of \p v (copied, not modified); 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Latency histogram in fixed memory, for request streams too long to keep
/// every sample: log-spaced buckets 0.5% wide from 100 ns to 100 s, with
/// percentiles interpolated inside the bucket that holds the rank.
class LatencyHistogram {
 public:
  void Add(double ms) {
    const double x = std::log(std::max(ms, kMinMs) / kMinMs) * kPerE;
    ++buckets_[std::min(kBuckets - 1, static_cast<size_t>(x))];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  /// The \p p quantile, ms; 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_);
    double below = 0.0;
    size_t i = 0;
    for (; i + 1 < kBuckets; ++i) {
      const auto n = static_cast<double>(buckets_[i]);
      if (n > 0.0 && below + n >= rank) break;
      below += n;
    }
    const auto n = static_cast<double>(buckets_[i]);
    const double within = n > 0.0 ? std::clamp((rank - below) / n, 0.0, 1.0)
                                  : 0.0;
    return kMinMs * std::exp((static_cast<double>(i) + within) / kPerE);
  }

 private:
  static constexpr double kMinMs = 1e-4;
  static constexpr double kPerE = 200.0;  ///< Buckets per factor of e.
  /// ln(100 s / 100 ns) * kPerE, rounded up.
  static constexpr size_t kBuckets = 4145;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

/// Shortest decimal text that reads back as exactly \p v.
inline std::string FormatDouble(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// --- Heap-allocation counter ---------------------------------------------
//
// The replaced global operator new (qcap_bench.cc) bumps one cache-line
// padded slot per thread, so counting adds no cross-thread contention to the
// multi-threaded workloads it measures.
namespace heap {

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};
inline constexpr size_t kSlots = 64;
inline Slot g_slots[kSlots];
inline std::atomic<size_t> g_next_slot{0};

inline void CountOne() {
  thread_local Slot* slot =
      &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  slot->count.fetch_add(1, std::memory_order_relaxed);
}

/// Allocations made by every thread since process start.
inline uint64_t Total() {
  const size_t used =
      std::min(kSlots, g_next_slot.load(std::memory_order_relaxed));
  uint64_t total = 0;
  for (size_t i = 0; i < used; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace heap

// --- Process resources ---------------------------------------------------

/// High-water resident set of this process image, MB. Read from VmHWM, not
/// ru_maxrss: the latter also counts the parent's memory from before exec,
/// so it would report the launcher's footprint for a small workload.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Current resident set, MB.
inline double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

/// Time, ms, of a fixed piece of ordinary single-threaded work on the
/// calling thread's CPU: sorting 32k pseudo-random integers, then building
/// and probing a hash table of 20k inserts. It is the yardstick for the
/// host's speed; nothing in src/ runs while it does. A shared host can run
/// every timing a third slower for minutes at a time, and this work slows
/// with the workloads, about in proportion (qcap_bench/README.md).
inline double HostProbeMs() {
  static const std::vector<uint32_t> kInput = [] {
    std::vector<uint32_t> v(size_t{1} << 15);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<uint32_t>(x);
    }
    return v;
  }();
  constexpr uint32_t kKeys = 50000, kInserts = 20000;
  std::vector<uint32_t> sorted = kInput;
  const Clock::time_point start = Clock::now();
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint32_t, uint32_t> table;
  for (uint32_t i = 0; i < kInserts; ++i) table[kInput[i] % kKeys] += i;
  uint64_t sum = sorted[sorted.size() / 2];
  for (uint32_t i = 0; i < kInserts; ++i) {
    const auto it = table.find(i * 7 % kKeys);
    if (it != table.end()) sum += it->second;
  }
  asm volatile("" : "+r"(sum));  // keep the work
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The HostProbeMs reading the end-to-end timings are scaled to: a timing
/// is reported as it would read on a host whose probe median is this.
inline constexpr double kReferenceProbeMs = 4.0;

/// User + system CPU seconds consumed by every thread of this process.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- Span tracer -----------------------------------------------------------

/// Per-name aggregate of closed spans.
struct SpanStats {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;   ///< Duration minus the time of direct children.
  uint64_t allocs = 0;    ///< Heap allocations (all threads) while open.
  std::vector<double> durations_ns;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Request id stamped on spans this thread opens from now on.
  static void SetRequest(uint64_t id) { Local().request = id; }

  /// Drops every aggregate (the kept events stay for the trace file).
  void ResetStats() {
    std::lock_guard<std::mutex> guard(mu_);
    stats_.clear();
  }

  /// Snapshot of the per-name aggregates.
  std::map<std::string, SpanStats> Stats() const {
    std::lock_guard<std::mutex> guard(mu_);
    std::map<std::string, SpanStats> out;
    for (const auto& [name, s] : stats_) {
      SpanStats& o = out[name];  // equal literals may have two addresses
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
      o.allocs += s.allocs;
      o.durations_ns.insert(o.durations_ns.end(), s.durations_ns.begin(),
                            s.durations_ns.end());
    }
    return out;
  }

  /// Writes the kept spans as Chrome trace-event JSON. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> guard(mu_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const std::string name = e.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%lld,\"request\":%llu}}%s\n",
                   e.name, layer.c_str(), e.tid, e.start_ns / 1e3,
                   e.dur_ns / 1e3, static_cast<unsigned long long>(e.id),
                   static_cast<long long>(e.parent),
                   static_cast<unsigned long long>(e.request),
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "],\"otherData\":{\"dropped_events\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

  uint64_t kept_events() const {
    std::lock_guard<std::mutex> guard(mu_);
    return events_.size();
  }

 private:
  friend class Span;

  /// Spans kept for the trace file; later spans are aggregated only.
  static constexpr size_t kMaxEvents = 100000;

  struct Open {
    uint64_t id;
    double child_ns;
  };
  struct ThreadState {
    uint32_t tid = 0;
    uint64_t request = 0;
    std::vector<Open> stack;
  };
  struct Event {
    const char* name;
    uint32_t tid;
    double start_ns;
    double dur_ns;
    uint64_t id;
    int64_t parent;
    uint64_t request;
  };

  static ThreadState& Local() {
    thread_local ThreadState state{NextTid(), 0, {}};
    return state;
  }
  static uint32_t NextTid() {
    static std::atomic<uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Tracer() : origin_(Clock::now()) {}

  uint64_t Begin() {
    ThreadState& t = Local();
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    t.stack.push_back(Open{id, 0.0});
    return id;
  }

  void End(const char* name, uint64_t id, Clock::time_point start,
           Clock::time_point stop, uint64_t allocs) {
    ThreadState& t = Local();
    const double dur =
        std::chrono::duration<double, std::nano>(stop - start).count();
    const double child = t.stack.back().child_ns;
    t.stack.pop_back();
    const int64_t parent =
        t.stack.empty() ? -1 : static_cast<int64_t>(t.stack.back().id);
    if (!t.stack.empty()) t.stack.back().child_ns += dur;
    std::lock_guard<std::mutex> guard(mu_);
    SpanStats& s = stats_[name];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - child;
    s.allocs += allocs;
    s.durations_ns.push_back(dur);
    if (events_.size() < kMaxEvents) {
      const double at =
          std::chrono::duration<double, std::nano>(start - origin_).count();
      events_.push_back(Event{name, t.tid, at, dur, id, parent, t.request});
    } else {
      ++dropped_;
    }
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  // Keyed by the literal's address: every span name is a string literal.
  std::unordered_map<const char*, SpanStats> stats_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op unless the tracer is enabled when it opens.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    active_ = true;
    id_ = t.Begin();
    allocs_ = heap::Total();
    start_ = Clock::now();
  }
  ~Span() {
    if (!active_) return;
    const Clock::time_point stop = Clock::now();
    Tracer::Get().End(name_, id_, start_, stop, heap::Total() - allocs_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t allocs_ = 0;
  Clock::time_point start_{};
};

}  // namespace qcap::bench

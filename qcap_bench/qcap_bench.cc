// qcap_bench: the repository's one self-checking measurement harness.
//
//   qcap_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//              [--trace-file FILE]
//   qcap_bench --smoke     every workload shrunk, one plain and one traced
//                          run each, every check on (the ctest smoke)
//   qcap_bench --env       the environment block as one JSON line
//
// One invocation runs one workload (qcap_bench/run.py starts a fresh process
// per run, so peak_rss_mb belongs to that workload alone). Inputs are made
// from --seed; the same seed gives the same inputs. The run sets up, then
// measures operations for --seconds, checks that the outputs are correct,
// prints a human-readable report, and ends with one JSON line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run records spans around the harness's calls into each module and reports
// the per-layer metrics, the per-layer table, and the tracing overhead. The
// exit code is 1 when any correctness check failed, 2 on a usage or set-up
// error. qcap_bench/README.md documents every workload and metric.
#include <sched.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adaptive_scenario.h"
#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "alloc/random_allocator.h"
#include "alloc/search_kernel.h"
#include "cluster/simulator.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "exec/cost_model.h"
#include "harness.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "net/dispatcher.h"
#include "net/frame.h"
#include "physical/physical_allocator.h"
#include "serving_load.h"
#include "workloads/synthetic_scale.h"

// Global allocation counter behind every `*_allocs` metric (the
// bench_microbench pattern, with per-thread slots; see harness.h). The
// nothrow forms are replaced too, so every form pairs with the free() below
// (std::stable_sort's temporary buffer uses them).
void* operator new(std::size_t size) {
  qcap::bench::heap::CountOne();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  qcap::bench::heap::CountOne();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
// GCC pairs the built-in operator new with the built-in operator delete at
// call sites and flags std::free as mismatched; with the malloc-backed
// replacement above, free() is exactly right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qcap::bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Deterministic for a seed: any change is a change in behaviour.
  bool exact = false;
};

// The metric names BENCHMARK.json lists; run.py refuses a result whose
// metric set differs from it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Every workload reports every per-layer metric; a layer a workload does
// not reach reads 0. Shares (`_pct`) are self time as a percentage of the
// time spent inside measured operations.
constexpr MetricDef kPerLayer[] = {
    {"trace.overhead_pct", "%"},
    {"host.calibration_ms", "ms"},
    {"cpu.busy_cores", "cores"},
    {"rss.growth_mb", "MB"},
    {"heap.allocs_per_op", "count"},
    {"net.decode_pct", "%"},
    {"net.execute_submit_pct", "%"},
    {"net.execute_done_pct", "%"},
    {"net.record_pct", "%"},
    {"net.encode_pct", "%"},
    {"net.scrape_pct", "%"},
    {"net.transport_pct", "%"},
    {"net.allocs_per_submit", "count"},
    {"net.allocs_per_done", "count"},
    {"net.latency_samples", "count"},
    {"alloc.index_pct", "%"},
    {"alloc.greedy_pct", "%"},
    {"alloc.memetic_pct", "%"},
    {"alloc.gc_pct", "%"},
    {"alloc.greedy_allocs", "count"},
    {"alloc.memetic_allocs", "count"},
    {"alloc.generations", "count", true},
    {"alloc.evaluations", "count", true},
    {"alloc.improvements", "count", true},
    {"alloc.improve_ratio", "ratio", true},
    {"alloc.evaluations_per_s", "1/s"},
    {"alloc.memetic_cpu_util", "ratio"},
    {"alloc.speedup", "x", true},
    {"alloc.replication", "x", true},
    {"model.validate_pct", "%"},
    {"physical.plan_pct", "%"},
    {"physical.moved_gb", "GB", true},
    {"exec.service_matrix_pct", "%"},
    {"exec.service_cells_per_s", "1/s"},
    {"cluster.scheduler_build_pct", "%"},
    {"cluster.create_pct", "%"},
    {"cluster.drain_pct", "%"},
    {"cluster.drain_allocs", "count"},
    {"cluster.sim_requests_per_s", "1/s"},
    {"cluster.sweep_speedup", "x"},
    {"cluster.sweep_cpu_util", "ratio"},
    {"cluster.sim_throughput", "1/sim_s", true},
    {"autonomic.install_pct", "%"},
    {"autonomic.idle_step_pct", "%"},
    {"autonomic.decide_step_pct", "%"},
    {"autonomic.step_allocs", "count"},
    {"autonomic.transitions", "count", true},
    {"autonomic.zero_move_transitions", "count", true},
    {"autonomic.decide_steps", "count", true},
    {"autonomic.simulated_requests", "count", true},
    {"autonomic.slo_attainment", "ratio", true},
    {"autonomic.node_hours", "node_h", true},
    {"autonomic.moved_gb", "GB", true},
};

/// Root span of one measured operation; `_pct` shares divide by its time.
constexpr const char* kOpSpan = "bench.op";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;
};

/// Everything one workload run measured.
struct RunResult {
  std::vector<double> setup_s;  ///< One entry per set-up.
  /// Batch workloads: every measured operation's latency. (Serving keeps
  /// its latencies in a LatencyHistogram.)
  std::vector<double> op_ms;
  /// HostProbeMs readings taken through the run, between operations.
  std::vector<double> probe_ms;
  uint64_t ops = 0;             ///< Operations completed.
  double measured_s = 0.0;      ///< Wall time the operations were timed over.
  uint64_t ops_failed = 0;
  uint64_t checks = 0;
  std::vector<std::string> failures;
  /// Per-layer metric values by name (unset names read 0).
  std::map<std::string, double> layer;
  /// Traced runs: op times without and with spans, for the overhead.
  std::vector<double> untraced_ms, traced_ms;
  /// Serving runs: each repetition's SUBMIT p50 and SUBMITs answered per
  /// second; when set, the end-to-end op metrics are their means.
  std::vector<double> rep_p50_ms, rep_rate;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double TotalNs(const std::map<std::string, SpanStats>& stats,
               const std::string& span) {
  const auto it = stats.find(span);
  return it == stats.end() ? 0.0 : it->second.total_ns;
}

/// 100 × self time of \p span over the time of every measured operation.
double SharePct(const std::map<std::string, SpanStats>& stats,
                const std::string& span) {
  const double op_ns = TotalNs(stats, kOpSpan);
  const auto it = stats.find(span);
  if (op_ns <= 0.0 || it == stats.end()) return 0.0;
  return 100.0 * it->second.self_ns / op_ns;
}

double AllocsPerCall(const std::map<std::string, SpanStats>& stats,
                     const std::string& span) {
  const auto it = stats.find(span);
  if (it == stats.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.allocs) /
         static_cast<double>(it->second.count);
}

/// FNV-1a over raw bytes: the run-to-run identity digests.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  template <typename T>
  void Add(const T& v) {
    Bytes(&v, sizeof(v));
  }
};

uint64_t AllocationDigest(const Allocation& a) {
  Digest d;
  d.Add(a.num_backends());
  for (size_t b = 0; b < a.num_backends(); ++b) {
    const ConstBitSpan row = a.RowBits(b);
    d.Bytes(row.words(), row.num_words() * sizeof(uint64_t));
    const std::span<const double> reads = a.ReadAssignRow(b);
    d.Bytes(reads.data(), reads.size() * sizeof(double));
    for (size_t u = 0; u < a.num_updates(); ++u) d.Add(a.update_assign(b, u));
  }
  return d.h;
}

uint64_t SimStatsDigest(const std::vector<SimStats>& runs) {
  Digest d;
  for (const SimStats& s : runs) {
    d.Add(s.duration_seconds);
    d.Add(s.completed_reads);
    d.Add(s.completed_updates);
    d.Add(s.failed_requests);
    d.Add(s.rejected_requests);
    d.Add(s.throughput);
    d.Add(s.avg_response_seconds);
    d.Add(s.max_response_seconds);
    d.Add(s.p50_response_seconds);
    d.Add(s.p95_response_seconds);
    d.Add(s.p99_response_seconds);
    d.Bytes(s.backend_busy_seconds.data(),
            s.backend_busy_seconds.size() * sizeof(double));
  }
  return d.h;
}

/// Moves the calling thread to the next CPU it may use on each Next(), in
/// turn, and gives it its CPU set back when destroyed. One CPU of a shared
/// host can run a third slower than the others for minutes, and the
/// scheduler keeps a thread where it started, so a run on that CPU would
/// shift the median; in turn, every run spends the same share of its work
/// on each CPU. Threads started while pinned inherit the one CPU, so the
/// pools a workload uses are made before.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// The CPUs the thread could use when this was made (empty if unknown).
  const std::vector<int>& cpus() const { return cpus_; }

  void Next() {
    if (!cpus_.empty()) Pin(cpus_[next_++ % cpus_.size()]);
  }

  /// Moves the calling thread to \p cpu alone (a negative \p cpu: nowhere).
  void Pin(int cpu) {
    if (cpu < 0 || cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// The op loop shared by the batch workloads: for i = 0, 1, ... calls
/// `prepare(i)` untimed, then moves to the next CPU in turn (CpuRotation),
/// reads the host probe there, and times `op(i, traced)`, until the timed
/// operations add up to \p seconds (and at least \p min_ops ran). A traced
/// run times every operation
/// twice, plainly and then with spans on, so the overhead compares equal
/// work, and then calls `probe(i)` with spans on but outside the
/// operation, for calls that split an opaque one.
template <typename Prepare, typename Op, typename Probe>
Status TimedOps(const Options& opt, size_t min_ops, RunResult* result,
                const Prepare& prepare, const Op& op, const Probe& probe) {
  Tracer& tracer = Tracer::Get();
  CpuRotation rotation;
  double spent = 0.0;
  for (size_t i = 0; spent < opt.seconds || i < min_ops; ++i) {
    QCAP_RETURN_NOT_OK(prepare(i));
    rotation.Next();
    result->probe_ms.push_back(HostProbeMs());
    Clock::time_point start = Clock::now();
    QCAP_RETURN_NOT_OK(op(i, false));
    const double plain_ms = Ms(Clock::now() - start);
    spent += plain_ms / 1e3;
    result->op_ms.push_back(plain_ms);
    ++result->ops;
    result->measured_s += plain_ms / 1e3;
    if (!opt.trace) continue;
    tracer.set_enabled(true);
    Tracer::SetRequest(i);
    start = Clock::now();
    Status status;
    {
      Span root(kOpSpan);
      status = op(i, true);
    }
    const double traced_ms = Ms(Clock::now() - start);
    if (status.ok()) status = probe(i);
    tracer.set_enabled(false);
    QCAP_RETURN_NOT_OK(status);
    spent += traced_ms / 1e3;
    result->untraced_ms.push_back(plain_ms);
    result->traced_ms.push_back(traced_ms);
  }
  return Status::OK();
}

Status NoProbe(size_t) { return Status::OK(); }

/// Times \p set_up \p count times into result->setup_s, for the set-ups
/// that take a millisecond or less (serving, adaptive-day). Their workloads
/// call this again and again through the run, so the median spans the
/// whole run rather than one moment of a shared host. \p tear_down runs
/// after each one, untimed, so stopping a server's thread or freeing what
/// a set-up built is not counted as set-up. Each set-up runs on the next
/// CPU in turn (CpuRotation), so every one starts with cold caches.
template <typename SetUp, typename TearDown>
Status TimeSetUps(size_t count, RunResult* result, const SetUp& set_up,
                  const TearDown& tear_down) {
  CpuRotation rotation;
  Status status;
  for (size_t i = 0; i < count && status.ok(); ++i) {
    rotation.Next();
    const Clock::time_point start = Clock::now();
    status = set_up();
    result->setup_s.push_back(SecondsSince(start));
    tear_down();
  }
  return status;
}

// ---------------------------------------------------------------------------
// Serving workloads: serve-closed and serve-scrape.
// ---------------------------------------------------------------------------

/// Client connections. One thread drives them all.
constexpr size_t kConnections = 2;
/// SUBMITs each connection keeps written and unanswered. With requests
/// always waiting, the server's poll loop never sleeps, so a run measures
/// how fast the server handles requests. With one request in flight, or a
/// fixed 10k/s schedule, every request instead waited for an idle CPU of
/// the VM to wake up, and that wake-up time moved the p50 by a third
/// between processes and over minutes, with the host and not the code.
constexpr size_t kWindow = 16;
/// SUBMIT replies one repetition measures, after a quarter as many for
/// warm-up. A repetition is a number of requests, not a time, because the
/// server keeps a latency sample for every routed request: timed
/// repetitions made a faster host, or a faster server, read as 40% more
/// peak RSS.
constexpr size_t kMeasuredPerRep = 400000;
/// Repetitions per run, at least; a run repeats until the measured time
/// adds up to --seconds (about 20-40 repetitions of 15 s on a 4-CPU VM).
/// Each runs a fresh server, with its poll thread on one CPU and the load
/// thread on another, every ordered pair of CPUs in turn (Placement), so a
/// CPU that runs slower than the others weighs about the same in every run.
/// One repetition held one throughput level, but levels about 35% apart
/// came and went between repetitions, whatever the CPUs; a run's mean over
/// many short repetitions averages them. Ten timed runs spread 15% with 12
/// repetitions and 9% with 24.
constexpr size_t kMinServingReps = 12;
/// Timed set-ups (TimeSetUps) before each repetition's own.
constexpr size_t kSetUpsPerRep = 5;
constexpr double kScrapeInterval = 0.05;
/// A connection that owes replies but has received nothing for this long
/// has failed. A stalled host can hold replies back for a while; a lost
/// one never comes.
constexpr double kGiveUpSeconds = 10.0;

/// (server CPU, load CPU) of serving repetition \p rep: the ordered pairs
/// of distinct CPUs the process may use, in turn; one CPU for both on a
/// one-CPU host, and -1 (no pinning) when the CPU set cannot be read.
std::pair<int, int> Placement(size_t rep) {
  const std::vector<int> cpus = CpuRotation().cpus();
  const size_t n = cpus.size();
  if (n == 0) return {-1, -1};
  if (n == 1) return {cpus[0], cpus[0]};
  const size_t pair = rep % (n * (n - 1));
  const size_t server = pair / (n - 1), other = pair % (n - 1);
  return {cpus[server], cpus[other < server ? other : other + 1]};
}

Clock::time_point After(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// What one connection, or the scraper, saw.
struct ClientLoad {
  size_t sent = 0;  ///< Stream entries issued.
  uint64_t failed = 0;
  std::string error;  ///< The first failure, for the report.

  void Note(const std::string& what) {
    if (error.empty()) error = what;
  }
  void Fail(uint64_t n, const std::string& what) {
    failed += n;
    if (n > 0) Note(what);
  }
};

/// One socket load phase against a running server.
struct SocketLoad {
  LatencyHistogram latency;  ///< The measured SUBMIT replies.
  /// When the last warm-up reply and the last measured reply came; both
  /// unset if the phase never got that far.
  std::optional<Clock::time_point> from, end;
  std::vector<double> scrape_ms;  ///< METRICS round trips.
  std::vector<ClientLoad> clients;

  /// Measured SUBMIT replies per second; 0 when the phase did not finish.
  double Rate() const {
    if (!from || !end || *end <= *from) return 0.0;
    return static_cast<double>(latency.count()) /
           std::chrono::duration<double>(*end - *from).count();
  }
};

/// Closed loop over every stream's connection from one spinning thread,
/// pinned to \p cpu. Each connection keeps kWindow SUBMITs outstanding: as
/// replies come back it writes as many new SUBMITs, plus the DONE each
/// routed backend calls for. Of the SUBMIT replies, in the order they are
/// read, the first \p warmup warm up and the next \p measured are measured;
/// a SUBMIT's latency runs from when it was queued for writing to when its
/// reply was read. Then nothing more is issued, and the replies still owed
/// are read.
void RunSenders(uint16_t port,
                const std::vector<std::vector<std::string>>& streams,
                const std::vector<std::string>& done_lines, size_t warmup,
                size_t measured, int cpu, SocketLoad* load) {
  CpuRotation pin;
  pin.Pin(cpu);
  struct Connection {
    std::optional<net::Client> client;  // empty once the connection failed
    /// The replies still owed, in order: a SUBMIT's issue time, or none for
    /// a DONE.
    std::deque<std::optional<Clock::time_point>> owed;
    net::FrameDecoder decoder;
    std::string out;
    size_t in_flight = 0;  ///< SUBMITs unanswered.
  };
  const size_t n = streams.size();
  std::vector<Connection> conns(n);
  for (size_t c = 0; c < n; ++c) {
    auto client = net::Client::Connect("127.0.0.1", port);
    Status status = client.status();
    if (status.ok()) status = client->socket().SetNonBlocking(true);
    if (!status.ok()) {
      load->clients[c].Fail(1, "connect: " + status.ToString());
      continue;
    }
    conns[c].client.emplace(std::move(client).value());
  }
  const size_t target = warmup + measured;
  size_t replies = 0;  // SUBMIT replies read, over every connection
  Clock::time_point heard = Clock::now();  // when bytes last came in
  std::string payload;
  std::vector<size_t> routed;
  char buf[16 * 1024];
  // Spins: a client that slept would leave the server waiting for it.
  for (bool active = true; active;) {
    active = false;
    for (size_t c = 0; c < n; ++c) {
      Connection& conn = conns[c];
      ClientLoad& client = load->clients[c];
      if (!conn.client) continue;
      const Clock::time_point now = Clock::now();
      for (; conn.in_flight < kWindow && replies < target; ++client.sent) {
        net::AppendFrame(&conn.out,
                         streams[c][client.sent % streams[c].size()]);
        conn.owed.push_back(now);
        ++conn.in_flight;
      }
      if (conn.owed.empty()) continue;
      active = true;
      if (!conn.out.empty()) {
        size_t written = 0;
        const Status sent = conn.client->socket().SendAll(
            conn.out.data(), conn.out.size(), &written);
        conn.out.erase(0, written);
        if (!sent.ok() && !sent.IsResourceExhausted()) {
          client.Note("send: " + sent.ToString());
          conn.client.reset();
          continue;
        }
      }
      const Result<size_t> got =
          conn.client->socket().RecvSome(buf, sizeof(buf));
      if (!got.ok() || *got == 0) {
        if (!got.ok() && got.status().IsResourceExhausted() &&
            SecondsSince(heard) <= kGiveUpSeconds) {
          continue;  // nothing to read yet
        }
        client.Note(got.ok() ? "the server closed the connection"
                    : got.status().IsResourceExhausted()
                        ? "no reply for 10 s"
                        : "recv: " + got.status().ToString());
        conn.client.reset();
        continue;
      }
      const Clock::time_point replied = Clock::now();
      heard = replied;
      conn.decoder.Feed(buf, *got);
      while (!conn.owed.empty() &&
             conn.decoder.Next(&payload) == net::FrameDecoder::Pop::kFrame) {
        const std::optional<Clock::time_point> issued = conn.owed.front();
        conn.owed.pop_front();
        if (!issued) {
          if (payload.rfind("OK", 0) != 0) client.Fail(1, "DONE: " + payload);
          continue;
        }
        --conn.in_flight;
        ++replies;
        if (replies == warmup) load->from = replied;
        if (replies == target) load->end = replied;
        bool ok = RoutedBackends(payload, &routed);
        for (size_t b : routed) {
          if (b >= done_lines.size()) {
            ok = false;
            continue;
          }
          net::AppendFrame(&conn.out, done_lines[b]);
          conn.owed.emplace_back();
        }
        if (!ok) {
          client.Fail(1, "SUBMIT: " + payload);
        } else if (replies > warmup && replies <= target) {
          load->latency.Add(Ms(replied - *issued));
        }
      }
    }
  }
  for (size_t c = 0; c < n; ++c) {
    load->clients[c].Fail(conns[c].owed.size(), "replies never came");
    if (conns[c].client &&
        conns[c].client->socket().SetNonBlocking(false).ok()) {
      conns[c].client->Call("QUIT");
    }
  }
}

/// Runs one repetition's load (RunSenders, on its own thread pinned to
/// \p cpu, with a connection per stream) against a running server. With
/// \p scrape the calling thread, not pinned, meanwhile sends METRICS every
/// kScrapeInterval over its own connection.
SocketLoad DriveSockets(uint16_t port,
                        const std::vector<std::vector<std::string>>& streams,
                        const std::vector<std::string>& done_lines,
                        bool scrape, size_t warmup, size_t measured, int cpu) {
  SocketLoad load;
  load.clients.resize(streams.size() + 1);  // the last is the scraper
  std::atomic<bool> finished{false};
  const Clock::time_point t0 = Clock::now();
  std::thread sender([&] {
    RunSenders(port, streams, done_lines, warmup, measured, cpu, &load);
    finished.store(true);
  });
  if (scrape) {
    ClientLoad& scraper = load.clients.back();
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      scraper.Fail(1, "METRICS connect: " + client.status().ToString());
    }
    for (size_t j = 1; client.ok(); ++j) {
      std::this_thread::sleep_until(
          After(t0, static_cast<double>(j) * kScrapeInterval));
      if (finished.load()) {
        client->Call("QUIT");
        break;
      }
      const Clock::time_point start = Clock::now();
      auto reply = client->Call("METRICS");
      if (!reply.ok() || reply->rfind("OK METRICS", 0) != 0) {
        scraper.Fail(1, "METRICS: " + (reply.ok() ? reply->substr(0, 80)
                                                  : reply.status().ToString()));
        continue;
      }
      load.scrape_ms.push_back(Ms(Clock::now() - start));
    }
  }
  sender.join();
  return load;
}

std::vector<std::string> DoneLines(size_t backends) {
  std::vector<std::string> out;
  for (size_t b = 0; b < backends; ++b) {
    out.push_back("DONE " + std::to_string(b));
  }
  return out;
}

/// `qcap_routing_latency_samples` as reported by METRICS.
double LatencySamples(net::Dispatcher* dispatcher) {
  const std::string text = dispatcher->Execute("METRICS", 0.0).text;
  const std::string key = "qcap_routing_latency_samples ";
  const size_t at = text.find(key);
  return at == std::string::npos ? 0.0
                                 : std::atof(text.c_str() + at + key.size());
}

/// In-process replay of a request stream through the server's own per-frame
/// path (decode, Execute, RecordRoutingLatency, encode), with no sockets,
/// for at most \p seconds. With \p scrape a second thread runs METRICS
/// every kScrapeInterval, as the live scraper does. Returns the SUBMIT path
/// time per request, ns.
Result<std::vector<double>> ReplayStream(const net::RoutingTable& table,
                                         const std::vector<std::string>& stream,
                                         bool scrape, double seconds,
                                         bool traced) {
  QCAP_ASSIGN_OR_RETURN(std::unique_ptr<net::Dispatcher> dispatcher,
                        net::Dispatcher::Create(table.cls, table.alloc, {}));
  std::vector<std::string> done_wire;
  for (const std::string& line : DoneLines(table.alloc.num_backends())) {
    done_wire.emplace_back();
    net::AppendFrame(&done_wire.back(), line);
  }
  net::FrameDecoder decoder;
  std::string wire, payload, outbuf;
  std::vector<size_t> routed;
  std::vector<double> submit_path_ns;
  submit_path_ns.reserve(stream.size());
  Tracer& tracer = Tracer::Get();
  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] { return SecondsSince(t0); };

  std::atomic<bool> stop{false};
  std::thread scraper;
  tracer.set_enabled(traced);
  if (scrape) {
    scraper = std::thread([&] {
      for (size_t j = 1;; ++j) {
        std::this_thread::sleep_until(
            After(t0, static_cast<double>(j) * kScrapeInterval));
        if (stop.load()) break;
        Span span("net.scrape");
        dispatcher->Execute("METRICS", now_s());
      }
    });
  }
  // One frame through the server path; returns the reply text.
  const auto serve = [&](const std::string& frame, const char* execute_span) {
    {
      Span span("net.decode");
      decoder.Feed(frame.data(), frame.size());
      decoder.Next(&payload);
    }
    net::Dispatcher::Reply reply;
    const double start = now_s();
    {
      Span span(execute_span);
      reply = dispatcher->Execute(payload, start);
    }
    if (reply.routed) {
      Span span("net.record");
      dispatcher->RecordRoutingLatency(now_s() - start);
    }
    {
      Span span("net.encode");
      outbuf.clear();
      net::AppendFrame(&outbuf, reply.text);
    }
    return reply.text;
  };

  Status status;
  for (size_t k = 0; k < stream.size() && now_s() < seconds; ++k) {
    wire.clear();
    net::AppendFrame(&wire, stream[k]);
    Tracer::SetRequest(k);
    Span root(kOpSpan);
    const Clock::time_point start = Clock::now();
    const std::string reply = serve(wire, "net.execute_submit");
    submit_path_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start).count());
    if (!RoutedBackends(reply, &routed)) {
      status = Status::Internal("replayed SUBMIT not routed: " + reply);
      break;
    }
    for (size_t b : routed) serve(done_wire[b], "net.execute_done");
  }
  stop.store(true);
  if (scraper.joinable()) scraper.join();
  tracer.set_enabled(false);
  QCAP_RETURN_NOT_OK(status);
  return submit_path_ns;
}

/// Interleaves the clients' streams in issue order, up to what each sent.
std::vector<std::string> IssuedStream(
    const std::vector<std::vector<std::string>>& streams,
    const std::vector<ClientLoad>& clients) {
  std::vector<std::string> out;
  size_t most = 0;
  for (size_t c = 0; c < streams.size(); ++c) {
    most = std::max(most, clients[c].sent);
  }
  for (size_t k = 0; k < most; ++k) {
    for (size_t c = 0; c < streams.size(); ++c) {
      if (k < clients[c].sent) out.push_back(streams[c][k % streams[c].size()]);
    }
  }
  return out;
}

Status RunServing(const Options& opt, bool scrape, RunResult* result) {
  // The traced run measures one socket repetition, then replays in process.
  const size_t min_reps = opt.trace ? 1 : (opt.smoke ? 2 : kMinServingReps);
  const bool repeat = !opt.trace && !opt.smoke;
  const size_t measured = opt.smoke ? 20000 : kMeasuredPerRep;
  const size_t warmup = measured / 4;
  const size_t stream_len = size_t{1} << 16;
  const auto set_up = [](net::RoutingTable* table,
                         std::unique_ptr<net::QueryRoutingServer>* server) {
    QCAP_RETURN_NOT_OK(BuildTpcAppRoutingTable(table));
    QCAP_ASSIGN_OR_RETURN(
        *server, net::QueryRoutingServer::Create(table->cls, table->alloc, {}));
    return (*server)->Start();
  };
  LatencyHistogram all;
  // However slow the host, or broken the server, a run ends: no repetition
  // starts after 4 x --seconds.
  const Clock::time_point began = Clock::now();
  for (size_t rep = 0;
       (rep < min_reps || (repeat && result->measured_s < opt.seconds)) &&
       SecondsSince(began) < 4 * opt.seconds;
       ++rep) {
    const auto [server_cpu, load_cpu] = Placement(rep);
    for (int cpu : {server_cpu, load_cpu}) {
      CpuRotation pin;
      pin.Pin(cpu);
      for (int k = 0; k < 2; ++k) result->probe_ms.push_back(HostProbeMs());
    }
    net::RoutingTable table;
    std::unique_ptr<net::QueryRoutingServer> server;
    QCAP_RETURN_NOT_OK(TimeSetUps(
        kSetUpsPerRep, result, [&] { return set_up(&table, &server); },
        [&] {
          server.reset();
          table = net::RoutingTable();
        }));
    {
      // The server's poll thread inherits the CPU it is started on.
      CpuRotation pin;
      pin.Pin(server_cpu);
      QCAP_RETURN_NOT_OK(set_up(&table, &server));
    }
    std::vector<std::vector<std::string>> streams;
    for (size_t c = 0; c < kConnections; ++c) {
      streams.push_back(SubmitStream(opt.seed * 1000003 + rep * 131 + c,
                                     stream_len, table.cls.reads.size(),
                                     table.cls.updates.size()));
    }
    const double cpu_before = ProcessCpuSeconds();
    const double rss_before = CurrentRssMb();
    const Clock::time_point start = Clock::now();
    const SocketLoad load =
        DriveSockets(server->port(), streams,
                     DoneLines(table.alloc.num_backends()), scrape, warmup,
                     measured, load_cpu);
    const double busy_cores =
        (ProcessCpuSeconds() - cpu_before) / SecondsSince(start);
    const double rss_growth = CurrentRssMb() - rss_before;
    const double latency_samples = LatencySamples(&server->dispatcher());
    server->Stop();
    for (const ClientLoad& c : load.clients) {
      result->ops_failed += c.failed;
      if (!c.error.empty()) {
        std::fprintf(stderr, "qcap_bench: repetition %zu: %s\n", rep,
                     c.error.c_str());
      }
    }
    const double rate = load.Rate();
    std::printf("  rep %zu: server on CPU %d, load on CPU %d: %.0f SUBMIT/s, "
                "p50 %.6f ms",
                rep, server_cpu, load_cpu, rate, load.latency.Percentile(0.5));
    if (scrape) {
      std::printf("; %zu METRICS scrapes, round trip ms p50 %.3f max %.3f",
                  load.scrape_ms.size(), Median(load.scrape_ms),
                  Percentile(load.scrape_ms, 1.0));
    }
    std::printf("\n");
    all.Merge(load.latency);
    result->ops += load.latency.count();
    if (rate > 0.0) {
      result->measured_s += static_cast<double>(load.latency.count()) / rate;
    }
    result->rep_p50_ms.push_back(load.latency.Percentile(0.5));
    result->rep_rate.push_back(rate);
    result->Check(VerifyRoutingParity(table.cls, table.alloc),
                  "routing parity after repetition " + std::to_string(rep));
    if (!opt.trace) continue;

    // Traced run: replay the issued stream in process, once plainly and
    // once with spans, and split the socket round trip by layer.
    std::map<std::string, double>& m = result->layer;
    m["cpu.busy_cores"] = busy_cores;
    m["rss.growth_mb"] = rss_growth;
    m["net.latency_samples"] = latency_samples;
    const std::vector<std::string> issued = IssuedStream(streams, load.clients);
    const double replay_s = opt.seconds / 4;
    QCAP_ASSIGN_OR_RETURN(std::vector<double> plain,
                          ReplayStream(table, issued, scrape, replay_s, false));
    Tracer::Get().ResetStats();
    QCAP_ASSIGN_OR_RETURN(std::vector<double> traced,
                          ReplayStream(table, issued, scrape, replay_s, true));
    // The two replays can stop at different points: compare equal work.
    const size_t pairs = std::min(plain.size(), traced.size());
    plain.resize(pairs);
    traced.resize(pairs);
    for (double ns : plain) result->untraced_ms.push_back(ns / 1e6);
    for (double ns : traced) result->traced_ms.push_back(ns / 1e6);
    const auto stats = Tracer::Get().Stats();
    for (const char* stage : {"net.decode", "net.execute_submit",
                              "net.execute_done", "net.record", "net.encode",
                              "net.scrape"}) {
      m[std::string(stage) + "_pct"] = SharePct(stats, stage);
    }
    const double call_ms = load.latency.Percentile(0.5);
    const double path_ms = Median(plain) / 1e6;
    m["net.transport_pct"] =
        call_ms > 0.0 ? 100.0 * (call_ms - path_ms) / call_ms : 0.0;
    m["net.allocs_per_submit"] = AllocsPerCall(stats, "net.execute_submit");
    m["net.allocs_per_done"] = AllocsPerCall(stats, "net.execute_done");
    m["heap.allocs_per_op"] = AllocsPerCall(stats, kOpSpan);
  }
  // The run's latency tail, for the report (not a metric).
  std::printf("  SUBMIT latency ms over the run: p50 %.6g p90 %.6g p99 %.6g "
              "p99.9 %.6g\n",
              all.Percentile(0.5), all.Percentile(0.9), all.Percentile(0.99),
              all.Percentile(0.999));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Synthetic-instance workloads: advise-synth and simulate-synth.
// ---------------------------------------------------------------------------

/// Shape of the synthetic instances: \p fragments fragments, 2.5 read
/// classes and 0.1 update classes per fragment, 16 backends. Every
/// operation draws a fresh instance (seeded from --seed and the operation
/// index), so one run's medians average over many instances instead of
/// riding on one. At 2000 fragments one advisor pass takes 1.2-2.5 s, so a
/// run would fit only about six; qcap_bench/README.md gives the measured
/// reasons for each workload's size.
struct SynthShape {
  size_t fragments, reads, updates, backends;
};

SynthShape ShapeFor(const Options& opt, size_t fragments) {
  return opt.smoke ? SynthShape{120, 300, 12, 8}
                   : SynthShape{fragments, fragments * 5 / 2, fragments / 10,
                                16};
}

Classification MakeInstance(const SynthShape& shape, uint64_t seed) {
  workloads::ScaleOptions so;
  so.num_fragments = shape.fragments;
  so.num_read_classes = shape.reads;
  so.num_update_classes = shape.updates;
  // With the generator's default of 1.1 one instance's memetic time ranges
  // from 0.07 to 4 s, and ten runs' op_p50_ms spread past the 25% bound.
  so.zipf_exponent = 0.6;
  so.seed = seed;
  return workloads::MakeScaleClassification(so);
}

/// Instances every synthetic-workload run measures, however fast the host
/// (TimedOps' minimum). The quality outputs average these, so they are
/// exact for a seed.
constexpr size_t kQualityInstances = 2;

uint64_t InstanceSeed(const Options& opt, size_t i) {
  return opt.seed * 1000003 + i;
}

/// One advisor pass: index build, greedy, memetic improvement, garbage
/// collection, validation, and the Hungarian plan from the installed layout.
struct AdviseOutcome {
  uint64_t digest = 0;
  double speedup = 0.0, replication = 0.0, moved_gb = 0.0;
  uint64_t generations = 0, evaluations = 0, improvements = 0;
  double memetic_s = 0.0, memetic_cpu_s = 0.0;
};

Result<AdviseOutcome> Advise(const Classification& cls,
                             const std::vector<BackendSpec>& backends,
                             const Allocation& installed, size_t generations,
                             uint64_t seed, ThreadPool* pool) {
  AdviseOutcome out;
  std::unique_ptr<ClassificationIndex> index;
  {
    Span span("alloc.index");
    index = std::make_unique<ClassificationIndex>(cls);
  }
  Result<Allocation> greedy = Status::Internal("unset");
  {
    Span span("alloc.greedy");
    greedy = GreedyAllocator().Allocate(cls, backends);
  }
  QCAP_RETURN_NOT_OK(greedy.status());
  SearchProgress progress;
  MemeticOptions mo;
  mo.population_size = 18;
  mo.num_islands = 4;
  mo.iterations = generations;
  mo.seed = seed;
  mo.pool = pool;
  mo.threads = 1;  // used only without a pool
  mo.progress = &progress;
  Result<Allocation> improved = Status::Internal("unset");
  {
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    Span span("alloc.memetic");
    improved = MemeticAllocator(mo).Improve(cls, backends, *greedy);
    out.memetic_s = SecondsSince(start);
    out.memetic_cpu_s = ProcessCpuSeconds() - cpu0;
  }
  QCAP_RETURN_NOT_OK(improved.status());
  {
    Span span("alloc.gc");
    Allocation collected = *improved;
    collected.BindSizes(cls.catalog);
    alloc_internal::SearchKernel kernel(cls, *index, backends);
    kernel.GarbageCollect(&collected);
  }
  {
    Span span("model.validate");
    QCAP_RETURN_NOT_OK(ValidateAllocation(cls, *greedy, backends));
    QCAP_RETURN_NOT_OK(ValidateAllocation(cls, *improved, backends));
  }
  TransitionPlan plan;
  {
    Span span("physical.plan");
    QCAP_ASSIGN_OR_RETURN(
        plan, PhysicalAllocator().Plan(installed, *improved, cls.catalog));
  }
  out.digest = AllocationDigest(*improved);
  out.speedup = Speedup(*improved, backends);
  out.replication = DegreeOfReplication(*improved, cls.catalog);
  out.moved_gb = plan.total_bytes / 1e9;
  out.generations = progress.generations.load();
  out.evaluations = progress.evaluations.load();
  out.improvements = progress.improvements.load();
  return out;
}

Status RunAdviseSynth(const Options& opt, RunResult* result) {
  // Memetic time varies far more between instances than greedy's, so its
  // share sets how much a run's median depends on which instances it drew.
  // At 700 fragments and 30 generations memetic takes 20-33% of an op and a
  // run fits about 36 ops; at 1000 and 45 it took about a third, but the
  // draw of about 16 instances alone spread ten runs 15%.
  const SynthShape shape = ShapeFor(opt, 700);
  const std::vector<BackendSpec> backends = HomogeneousBackends(shape.backends);
  const size_t generations = opt.smoke ? 5 : 30;
  ThreadPool pool(3);
  // Only the current instance is kept, so memory does not grow with the
  // number of operations a run fits in.
  Classification cls;
  Allocation installed;  // a random layout the plan migrates from
  const auto make_instance = [&](size_t i) -> Status {
    cls = MakeInstance(shape, InstanceSeed(opt, i));
    QCAP_RETURN_NOT_OK(cls.Validate());
    QCAP_ASSIGN_OR_RETURN(installed, RandomAllocator(InstanceSeed(opt, i))
                                         .Allocate(cls, backends));
    return Status::OK();
  };
  std::vector<AdviseOutcome> first;  // plain outcome per instance
  double memetic_s = 0.0, memetic_cpu_s = 0.0;
  double memetic_evals = 0.0;
  const auto prepare = [&](size_t i) -> Status {
    const Clock::time_point start = Clock::now();
    QCAP_RETURN_NOT_OK(make_instance(i));
    result->setup_s.push_back(SecondsSince(start));
    return Status::OK();
  };
  const auto op = [&](size_t i, bool traced) -> Status {
    QCAP_ASSIGN_OR_RETURN(AdviseOutcome out,
                          Advise(cls, backends, installed, generations,
                                 InstanceSeed(opt, i), &pool));
    if (!traced) {
      first.push_back(out);
      return Status::OK();
    }
    result->Check(out.digest == first[i].digest,
                  "advisor result differs between two same-seed runs");
    memetic_s += out.memetic_s;
    memetic_cpu_s += out.memetic_cpu_s;
    memetic_evals += static_cast<double>(out.evaluations);
    return Status::OK();
  };
  QCAP_RETURN_NOT_OK(
      TimedOps(opt, kQualityInstances, result, prepare, op, NoProbe));

  // Same seed, same instance: the advisor's answer must be bit-identical,
  // and (too slow for every run) must not depend on the thread count.
  QCAP_RETURN_NOT_OK(make_instance(0));
  QCAP_ASSIGN_OR_RETURN(AdviseOutcome again,
                        Advise(cls, backends, installed, generations,
                               InstanceSeed(opt, 0), &pool));
  result->Check(again.digest == first[0].digest,
                "advisor result differs between two same-seed runs");
  if (opt.trace) {
    QCAP_ASSIGN_OR_RETURN(AdviseOutcome serial,
                          Advise(cls, backends, installed, generations,
                                 InstanceSeed(opt, 0), nullptr));
    result->Check(serial.digest == first[0].digest,
                  "advisor result differs between 1 and 3 threads");
  }

  std::map<std::string, double>& m = result->layer;
  std::vector<double> speedup, replication, moved, gens, evals, improvements;
  for (size_t i = 0; i < kQualityInstances; ++i) {
    const AdviseOutcome& o = first[i];
    speedup.push_back(o.speedup);
    replication.push_back(o.replication);
    moved.push_back(o.moved_gb);
    gens.push_back(static_cast<double>(o.generations));
    evals.push_back(static_cast<double>(o.evaluations));
    improvements.push_back(static_cast<double>(o.improvements));
  }
  m["alloc.speedup"] = Mean(speedup);
  m["alloc.replication"] = Mean(replication);
  m["physical.moved_gb"] = Mean(moved);
  m["alloc.generations"] = Mean(gens);
  m["alloc.evaluations"] = Mean(evals);
  m["alloc.improvements"] = Mean(improvements);
  m["alloc.improve_ratio"] =
      Mean(evals) > 0.0 ? Mean(improvements) / Mean(evals) : 0.0;
  if (opt.trace) {
    const auto stats = Tracer::Get().Stats();
    for (const char* stage : {"alloc.index", "alloc.greedy", "alloc.memetic",
                              "alloc.gc", "model.validate", "physical.plan"}) {
      m[std::string(stage) + "_pct"] = SharePct(stats, stage);
    }
    m["alloc.greedy_allocs"] = AllocsPerCall(stats, "alloc.greedy");
    m["alloc.memetic_allocs"] = AllocsPerCall(stats, "alloc.memetic");
    m["heap.allocs_per_op"] = AllocsPerCall(stats, kOpSpan);
    m["alloc.evaluations_per_s"] =
        memetic_s > 0.0 ? memetic_evals / memetic_s : 0.0;
    // ParallelFor runs work on the calling thread too: pool + 1 threads.
    m["alloc.memetic_cpu_util"] =
        memetic_s > 0.0 ? memetic_cpu_s /
                              (memetic_s * static_cast<double>(pool.size() + 1))
                        : 0.0;
  }
  return Status::OK();
}

Status RunSimulateSynth(const Options& opt, RunResult* result) {
  const SynthShape shape = ShapeFor(opt, 1000);
  const std::vector<BackendSpec> backends = HomogeneousBackends(shape.backends);
  // 200k requests per replication give the sweep about the service
  // matrix's share of the op, so either layer's gains show.
  const uint64_t requests = opt.smoke ? 5000 : 200000;
  const size_t concurrency = 64, replications = 3;
  ThreadPool pool(replications);
  const SimulationConfig config;
  // Only the current instance is kept, so memory does not grow with the
  // number of operations a run fits in.
  Classification cls;
  Allocation alloc;
  std::optional<ClusterSimulator> last;  // the traced op's simulator
  const auto make_instance = [&](size_t i) -> Status {
    last.reset();  // it refers to the instance being replaced
    cls = MakeInstance(shape, InstanceSeed(opt, i));
    QCAP_ASSIGN_OR_RETURN(alloc, GreedyAllocator().Allocate(cls, backends));
    return ValidateAllocation(cls, alloc, backends);
  };
  std::vector<uint64_t> first_digest;
  std::vector<double> sim_throughput;
  double matrix_s = 0.0, cells = 0.0, serial_s = 0.0, drain_s = 0.0,
         drain_cpu_s = 0.0;

  // Create + a 3-replication closed-loop sweep, checked for completion and
  // against the first same-seed run of instance \p i.
  const auto simulate = [&](size_t i, bool traced) -> Status {
    Result<ClusterSimulator> sim = [&] {
      Span span("cluster.create");
      return ClusterSimulator::Create(cls, alloc, backends, config);
    }();
    QCAP_RETURN_NOT_OK(sim.status());
    SweepOptions sweep;
    sweep.repeat = replications;
    sweep.pool = &pool;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    std::vector<SimStats> runs;
    {
      Span span("cluster.drain");
      QCAP_ASSIGN_OR_RETURN(runs,
                            sim->RunClosedSweep(requests, concurrency, sweep));
    }
    if (traced) {
      drain_s += SecondsSince(start);
      drain_cpu_s += ProcessCpuSeconds() - cpu0;
      last.emplace(std::move(sim).value());
    }
    bool complete = runs.size() == replications;
    for (const SimStats& s : runs) {
      complete = complete && s.completed_total() == requests &&
                 s.failed_requests == 0 && s.rejected_requests == 0;
    }
    result->Check(complete, "simulated sweep did not complete every request");
    if (first_digest.size() == i) {
      first_digest.push_back(SimStatsDigest(runs));
      sim_throughput.push_back(runs.empty() ? 0.0 : runs[0].throughput);
    } else {
      result->Check(SimStatsDigest(runs) == first_digest[i],
                    "SimStats differ between same-seed runs");
    }
    return Status::OK();
  };
  // The pieces Create runs internally, timed on their own, and one serial
  // replication for the sweep's parallel speed-up.
  const auto probe = [&](size_t) -> Status {
    {
      Span span("exec.service_matrix");
      const Clock::time_point start = Clock::now();
      engine::CostModel(config.cost_params).ServiceMatrix(cls, alloc, backends);
      matrix_s += SecondsSince(start);
      cells += static_cast<double>(cls.NumClasses() * backends.size());
    }
    {
      Span span("cluster.scheduler_build");
      QCAP_RETURN_NOT_OK(Scheduler::Build(cls, alloc).status());
    }
    const Clock::time_point start = Clock::now();
    QCAP_RETURN_NOT_OK(last->RunClosed(requests, concurrency).status());
    serial_s += SecondsSince(start);
    return Status::OK();
  };
  const auto prepare = [&](size_t i) -> Status {
    const Clock::time_point start = Clock::now();
    QCAP_RETURN_NOT_OK(make_instance(i));
    result->setup_s.push_back(SecondsSince(start));
    return Status::OK();
  };
  QCAP_RETURN_NOT_OK(
      TimedOps(opt, kQualityInstances, result, prepare, simulate, probe));
  if (!opt.trace) {
    // A plain run simulates each instance once; repeat the first to pin
    // the same-seed digest.
    QCAP_RETURN_NOT_OK(make_instance(0));
    QCAP_RETURN_NOT_OK(simulate(0, false));
  }

  std::map<std::string, double>& m = result->layer;
  sim_throughput.resize(kQualityInstances);
  m["cluster.sim_throughput"] = Mean(sim_throughput);
  if (!opt.trace) return Status::OK();
  const auto stats = Tracer::Get().Stats();
  const double op_ns = TotalNs(stats, kOpSpan);
  if (op_ns > 0.0) {
    // Create runs the service matrix and the scheduler build itself; its
    // own share is what remains after them.
    const double matrix_ns = TotalNs(stats, "exec.service_matrix");
    const double build_ns = TotalNs(stats, "cluster.scheduler_build");
    m["exec.service_matrix_pct"] = 100.0 * matrix_ns / op_ns;
    m["cluster.scheduler_build_pct"] = 100.0 * build_ns / op_ns;
    m["cluster.create_pct"] =
        100.0 * (TotalNs(stats, "cluster.create") - matrix_ns - build_ns) /
        op_ns;
    m["cluster.drain_pct"] = 100.0 * TotalNs(stats, "cluster.drain") / op_ns;
  }
  m["exec.service_cells_per_s"] = matrix_s > 0.0 ? cells / matrix_s : 0.0;
  m["cluster.drain_allocs"] = AllocsPerCall(stats, "cluster.drain");
  m["heap.allocs_per_op"] = AllocsPerCall(stats, kOpSpan);
  if (drain_s > 0.0) {
    const double reps = static_cast<double>(replications);
    m["cluster.sim_requests_per_s"] =
        static_cast<double>(result->traced_ms.size()) * reps *
        static_cast<double>(requests) / drain_s;
    m["cluster.sweep_speedup"] = reps * serial_s / drain_s;
    m["cluster.sweep_cpu_util"] = drain_cpu_s / (drain_s * reps);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// adaptive-day
// ---------------------------------------------------------------------------

constexpr size_t kDays = 16;  ///< Simulator seeds S..S+15 cycle per run.

/// One day through a fresh controller: Install, then the library's
/// AdaptiveController::ReplayDay. The stepwise replay (traced runs) drives
/// one Step per bucket instead, so each Step's time goes to \p idle_ns or
/// \p decide_ns by whether it decided an action; it returns only the steps
/// and transitions, for the caller to check against ReplayDay's report.
Result<AdaptiveReport> ReplayAdaptiveDay(const AdaptiveScenario& scenario,
                                         uint64_t sim_seed, bool stepwise,
                                         double* idle_ns, double* decide_ns) {
  KSafeGreedyAllocator allocator(KSafetyOptions{1, 1e-12, 0});
  AdaptiveOptions options = scenario.options;
  options.sim.seed = sim_seed;
  AdaptiveController controller(scenario.cls, &allocator, options);
  {
    Span span("autonomic.install");
    QCAP_RETURN_NOT_OK(controller.Install(scenario.start_nodes));
  }
  if (!stepwise) return controller.ReplayDay(scenario.day, scenario.faults);
  const std::vector<FaultEvent> faults = scenario.faults.Sorted();
  AdaptiveReport report;
  for (const BucketDemand& demand : scenario.day) {
    std::vector<FaultEvent> external;
    for (const FaultEvent& e : faults) {
      if (e.time_seconds >= demand.tod_seconds &&
          e.time_seconds < demand.tod_seconds + options.bucket_seconds) {
        external.push_back(e);
      }
    }
    const Clock::time_point start = Clock::now();
    Result<AdaptiveStep> step = Status::Internal("unset");
    {
      Span span("autonomic.step");
      step = controller.Step(demand, external);
    }
    QCAP_RETURN_NOT_OK(step.status());
    *(step->decision != AdaptiveAction::kNone ? decide_ns : idle_ns) +=
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    report.steps.push_back(std::move(step).value());
  }
  report.transitions = controller.transitions();
  return report;
}

/// A day's report and its serialization (string equality is report
/// equality).
struct DayRecord {
  AdaptiveReport report;
  std::string serialized;
};

Status RunAdaptiveDay(const Options& opt, RunResult* result) {
  AdaptiveScenario scenario;
  QCAP_RETURN_NOT_OK(BuildAdaptiveScenario(opt.seed, opt.smoke, &scenario));
  const size_t days = opt.smoke ? 2 : kDays;
  std::vector<DayRecord> first;
  double idle_ns = 0.0, decide_ns = 0.0;
  // A timed set-up before every op, into a scenario thrown away.
  const auto prepare = [&](size_t) {
    AdaptiveScenario built;
    return TimeSetUps(
        1, result,
        [&] { return BuildAdaptiveScenario(opt.seed, opt.smoke, &built); },
        [&] { built = AdaptiveScenario(); });
  };
  const auto op = [&](size_t i, bool traced) -> Status {
    const size_t day = i % days;
    QCAP_ASSIGN_OR_RETURN(AdaptiveReport report,
                          ReplayAdaptiveDay(scenario, opt.seed + day, traced,
                                            &idle_ns, &decide_ns));
    if (first.size() == day) {
      std::string serialized = SerializeReport(report);
      first.push_back(DayRecord{std::move(report), std::move(serialized)});
      return Status::OK();
    }
    if (traced) {
      // The stepwise replay carries steps and transitions only; the day's
      // totals derive from them.
      AdaptiveReport stepped = first[day].report;
      stepped.steps = std::move(report.steps);
      stepped.transitions = std::move(report.transitions);
      result->Check(SerializeReport(stepped) == first[day].serialized,
                    "adaptive day " + std::to_string(day) +
                        ": Step by Step differs from ReplayDay");
    } else {
      result->Check(SerializeReport(report) == first[day].serialized,
                    "adaptive day " + std::to_string(day) +
                        " report differs between same-seed replays");
    }
    return Status::OK();
  };
  // At least two laps, so every day is checked against its own replay.
  QCAP_RETURN_NOT_OK(TimedOps(opt, 2 * days, result, prepare, op, NoProbe));

  std::map<std::string, double>& m = result->layer;
  std::vector<double> slo, hours, moved, transitions, zero, decide, requests;
  for (const DayRecord& d : first) {
    const AdaptiveReport& r = d.report;
    slo.push_back(r.slo_attainment);
    hours.push_back(r.node_seconds / 3600.0);
    double moved_gb = 0.0, completed = 0.0, zero_move = 0.0;
    for (const TransitionRecord& t : r.transitions) {
      if (!t.completed) continue;
      ++completed;
      moved_gb += t.moved_bytes / 1e9;
      if (t.moved_bytes == 0.0) ++zero_move;
    }
    double decided = 0.0, offered = 0.0;
    for (const AdaptiveStep& s : r.steps) {
      if (s.decision != AdaptiveAction::kNone) ++decided;
      offered += static_cast<double>(s.completed + s.failed + s.rejected);
    }
    moved.push_back(moved_gb);
    transitions.push_back(completed);
    zero.push_back(zero_move);
    decide.push_back(decided);
    requests.push_back(offered);
  }
  m["autonomic.slo_attainment"] = Mean(slo);
  m["autonomic.node_hours"] = Mean(hours);
  m["autonomic.moved_gb"] = Mean(moved);
  m["autonomic.transitions"] = Mean(transitions);
  m["autonomic.zero_move_transitions"] = Mean(zero);
  m["autonomic.decide_steps"] = Mean(decide);
  m["autonomic.simulated_requests"] = Mean(requests);
  if (!opt.trace) return Status::OK();
  const auto stats = Tracer::Get().Stats();
  const double op_ns = TotalNs(stats, kOpSpan);
  m["autonomic.install_pct"] = SharePct(stats, "autonomic.install");
  if (op_ns > 0.0) {
    m["autonomic.idle_step_pct"] = 100.0 * idle_ns / op_ns;
    m["autonomic.decide_step_pct"] = 100.0 * decide_ns / op_ns;
  }
  m["autonomic.step_allocs"] = AllocsPerCall(stats, "autonomic.step");
  m["heap.allocs_per_op"] = AllocsPerCall(stats, kOpSpan);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Status (*run)(const Options&, RunResult*);
};

constexpr Workload kWorkloads[] = {
    {"serve-closed",
     [](const Options& o, RunResult* r) { return RunServing(o, false, r); }},
    {"serve-scrape",
     [](const Options& o, RunResult* r) { return RunServing(o, true, r); }},
    {"advise-synth", RunAdviseSynth},
    {"simulate-synth", RunSimulateSynth},
    {"adaptive-day", RunAdaptiveDay},
};

std::string EnvJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"build_type\": \"%s\", \"simd\": %s, \"nproc\": %u, "
                "\"compiler\": \"%s\", \"commit\": \"%s\"}",
                QCAP_BENCH_BUILD_TYPE, simd::Enabled() ? "true" : "false",
                std::thread::hardware_concurrency(), QCAP_BENCH_COMPILER,
                QCAP_BENCH_COMMIT);
  return buf;
}

/// The per-layer table: each span's count, total and self time, latency
/// percentiles and heap allocations per call, sorted by name (so by layer).
void PrintSpanTable() {
  std::printf("  %-28s %9s %11s %11s %10s %10s %11s\n", "span", "count",
              "total_ms", "self_ms", "p50_us", "p99_us", "allocs/call");
  for (const auto& [name, s] : Tracer::Get().Stats()) {
    std::printf("  %-28s %9" PRIu64 " %11.3f %11.3f %10.3f %10.3f %11.1f\n",
                name.c_str(), s.count, s.total_ns / 1e6, s.self_ns / 1e6,
                Percentile(s.durations_ns, 0.5) / 1e3,
                Percentile(s.durations_ns, 0.99) / 1e3,
                s.count ? static_cast<double>(s.allocs) /
                              static_cast<double>(s.count)
                        : 0.0);
  }
}

/// Runs one workload and prints its report (and, with \p print_json, the
/// result line); returns the process exit code.
int RunOne(const Workload& workload, const Options& opt, bool print_json) {
  std::printf("qcap_bench %s: seed %" PRIu64 ", %.3g s, trace %d%s\n",
              workload.name, opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? ", smoke" : "");
  std::printf("env %s\n", EnvJson().c_str());
  Tracer::Get().ResetStats();
  RunResult result;
  const Status status = workload.run(opt, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "qcap_bench %s: %s\n", workload.name,
                 status.ToString().c_str());
    return 2;
  }
  if (result.ops == 0 || result.setup_s.empty() ||
      result.measured_s <= 0.0 || result.probe_ms.empty()) {
    std::fprintf(stderr, "qcap_bench %s: nothing was measured\n",
                 workload.name);
    return 2;
  }

  const double probe_ms = Median(result.probe_ms);
  std::map<std::string, double> values;
  if (opt.trace) {
    values = result.layer;
    values["host.calibration_ms"] = probe_ms;
    const double plain = Median(result.untraced_ms);
    values["trace.overhead_pct"] =
        plain > 0.0 ? 100.0 * (Median(result.traced_ms) / plain - 1.0) : 0.0;
  } else {
    const bool serving = !result.rep_rate.empty();
    const double setup_s = Median(result.setup_s);
    const double op_ms =
        serving ? Mean(result.rep_p50_ms) : Median(result.op_ms);
    const double rate =
        serving ? Mean(result.rep_rate)
                : static_cast<double>(result.ops) / result.measured_s;
    // The timings as they would read at the reference host speed: the
    // host's slow spells move every timing and the probe together, and
    // moved two sets of runs of the same code apart by more than a bound.
    const double speed = kReferenceProbeMs / probe_ms;
    std::printf("  as measured: setup_s %.6g, op_p50_ms %.6g, ops_per_s "
                "%.6g; host probe median %.4f ms over %zu readings\n",
                setup_s, op_ms, rate, probe_ms, result.probe_ms.size());
    values["setup_s"] = setup_s * speed;
    values["op_p50_ms"] = op_ms * speed;
    values["ops_per_s"] = rate / speed;
    values["peak_rss_mb"] = PeakRssMb();
  }
  std::printf("  %" PRIu64 " ops (%" PRIu64 " failed), %zu set-ups, %" PRIu64
              " checks\n",
              result.ops, result.ops_failed, result.setup_s.size(),
              result.checks);
  // The tail is printed, not gated: on a shared host it moves between runs
  // by more than any useful bound. (Serving prints its own.)
  if (!result.op_ms.empty()) {
    std::printf("  op ms p50 %.6g p90 %.6g p99 %.6g max %.6g\n",
                Median(result.op_ms), Percentile(result.op_ms, 0.9),
                Percentile(result.op_ms, 0.99), Percentile(result.op_ms, 1.0));
  }
  const MetricDef* defs = opt.trace ? kPerLayer : kEndToEnd;
  const size_t num_defs =
      opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics_json;
  for (size_t i = 0; i < num_defs; ++i) {
    const double v = values[defs[i].name];
    result.Check(std::isfinite(v),
                 std::string(defs[i].name) + " is not a finite number");
    std::printf("  %-34s %14.6g %s\n", defs[i].name, v, defs[i].unit);
    metrics_json += std::string(i ? ", " : "") + "\"" + defs[i].name +
                    "\": {\"value\": " +
                    FormatDouble(std::isfinite(v) ? v : 0.0) +
                    ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  if (!opt.trace) {
    // The exact per-layer outputs cost nothing to compute, so every run
    // reports them on this line for run.py --compare.
    std::string exact;
    for (const MetricDef& def : kPerLayer) {
      if (!def.exact) continue;
      exact += std::string(exact.empty() ? "" : ", ") + "\"" + def.name +
               "\": " + FormatDouble(result.layer[def.name]);
    }
    std::printf("exact {%s}\n", exact.c_str());
  }
  if (opt.trace) {
    PrintSpanTable();
    std::printf("  trace overhead: %+.2f%% on the op median (%zu pairs)\n",
                values["trace.overhead_pct"], result.traced_ms.size());
    if (!opt.trace_file.empty()) {
      const bool written = Tracer::Get().WriteChromeTrace(opt.trace_file);
      result.Check(written, "could not write " + opt.trace_file);
      if (written) {
        std::printf("  trace: %s (%" PRIu64 " spans)\n",
                    opt.trace_file.c_str(), Tracer::Get().kept_events());
      }
    }
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "qcap_bench %s: CHECK FAILED: %s\n", workload.name,
                 f.c_str());
  }
  if (result.ops_failed > 0) {
    std::fprintf(stderr, "qcap_bench %s: %" PRIu64 " operations failed\n",
                 workload.name, result.ops_failed);
  }
  const bool correct = result.failures.empty() && result.ops_failed == 0;
  if (print_json) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<size_t>(result.ops + result.ops_failed +
                                    result.checks),
                static_cast<size_t>(result.ops_failed + result.failures.size()),
                metrics_json.c_str());
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage(const std::string& message) {
  std::fprintf(stderr, "qcap_bench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: qcap_bench --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-file FILE]\n"
               "       qcap_bench --smoke | --env\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--env") {
      std::printf("%s\n", EnvJson().c_str());
      return 0;
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        return Usage("--seconds needs a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace needs 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (arg == "--trace-file") {
      opt.trace_file = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }

  if (opt.smoke && opt.workload.empty()) {
    // Every workload, shrunk: one plain run and one traced run each.
    int worst = 0;
    for (const Workload& w : kWorkloads) {
      for (bool traced : {false, true}) {
        Options o = opt;
        o.seconds = 0.4;
        o.trace = traced;
        worst = std::max(worst, RunOne(w, o, false));
      }
    }
    std::printf("qcap_bench smoke: %s\n", worst == 0 ? "OK" : "FAILED");
    return worst;
  }
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) return RunOne(w, opt, true);
  }
  return Usage(opt.workload.empty() ? "--workload is required"
                                    : "unknown workload " + opt.workload);
}

}  // namespace
}  // namespace qcap::bench

int main(int argc, char** argv) { return qcap::bench::Main(argc, argv); }

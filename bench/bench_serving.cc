// bench_serving: closed/open-loop load generator for the qcap_serve wire
// protocol (docs/SERVING.md).
//
// By default it spawns an in-process QueryRoutingServer on an ephemeral
// loopback port (a real TCP server, same code path as qcap_serve), drives
// it with N concurrent client connections, and reports client-observed
// routing latency percentiles and sustained throughput. With --port it
// targets an already-running external server instead and discovers the
// class universe via HEALTH.
//
//   closed loop (default): each client keeps exactly one request in
//     flight — SUBMIT, read the decision, DONE the backend(s), repeat.
//   open loop (--open-qps Q): clients fire on a fixed schedule totalling
//     Q submits/second regardless of response times, the paper-style
//     arrival process. Latency is timed from each request's scheduled
//     time, so it includes any server-side queueing and any time the
//     generator fell behind (no coordinated omission); how late the
//     generator ran is printed beside it.
//
// The in-process server routes the harness's serving table (TPC-App on 4
// backends, qcap_bench/serving_load.h). A final serial phase replays a fixed
// class sequence against a fresh server AND a directly-built Scheduler with
// mirrored pending bookkeeping, asserting the routing decisions are
// bit-identical (the serving layer adds transport, not policy).
//
// Results go to stdout and, with --out FILE (or via the bench_serving_json
// target), to a small JSON file committed as the serving baseline.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/stats.h"
#include "common/stats.h"
#include "common/strings.h"
#include "net/client.h"
#include "net/server.h"
#include "serving_load.h"

using namespace qcap;
using Clock = std::chrono::steady_clock;

namespace {

struct BenchConfig {
  size_t clients = 8;
  size_t requests_per_client = 5000;  // closed loop
  double open_qps = 0.0;              // > 0 switches to open loop
  double open_duration_seconds = 5.0;
  uint16_t external_port = 0;  // 0 = spawn an in-process server
  std::string out_path;        // empty = stdout only
  bool smoke = false;
};

struct LoadResult {
  uint64_t completed = 0;
  uint64_t errors = 0;
  double wall_seconds = 0.0;
  ResponseAccumulator latency;
  /// Open loop only: how long after its scheduled time each SUBMIT was sent.
  ResponseAccumulator lateness;
};

int Fail(const char* message) {
  std::fprintf(stderr, "bench_serving: %s\n", message);
  std::fprintf(stderr,
               "usage: bench_serving [--clients N] [--requests N] "
               "[--open-qps Q] [--duration S] [--port P] "
               "[--out FILE] [--smoke]\n");
  return 2;
}

/// Reads the count after \p key in a HEALTH reply; it runs to the next
/// space or the end of the reply.
std::optional<uint64_t> HealthField(std::string_view health,
                                    std::string_view key) {
  const size_t at = health.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  const size_t begin = at + key.size();
  return ParseUint(health.substr(begin, health.find(' ', begin) - begin));
}

/// The deterministic class mix: 7 reads then 1 update, cycling through the
/// class lists — roughly the TPC-App 1:7 update:read query ratio.
std::string ClassToken(size_t step, size_t reads, size_t updates) {
  if (updates > 0 && step % 8 == 7) {
    return "U" + std::to_string((step / 8) % updates);
  }
  return "R" + std::to_string(step % reads);
}

/// Sends SUBMIT, records its latency from \p start (the send time in the
/// closed loop, the scheduled time in the open loop), and DONEs every routed
/// backend so the closed loop leaves no pending depth behind. Returns false
/// on transport failure.
bool SubmitOnce(net::Client* client, const std::string& token,
                Clock::time_point start, std::vector<double>* latencies,
                uint64_t* completed, uint64_t* errors) {
  auto reply = client->Call("SUBMIT " + token);
  const auto stop = Clock::now();
  if (!reply.ok()) return false;
  latencies->push_back(std::chrono::duration<double>(stop - start).count());
  if (reply->rfind("ERR", 0) == 0) {
    ++*errors;
    return true;
  }
  ++*completed;
  std::vector<size_t> backends;
  bench::RoutedBackends(*reply, &backends);
  for (size_t b : backends) {
    if (!client->Call("DONE " + std::to_string(b)).ok()) return false;
  }
  return true;
}

/// Runs the load phase with one thread per client connection.
LoadResult RunLoad(const BenchConfig& config, uint16_t port, size_t reads,
                   size_t updates) {
  std::vector<std::vector<double>> latencies(config.clients);
  std::vector<std::vector<double>> lateness(config.clients);
  std::vector<uint64_t> completed(config.clients, 0);
  std::vector<uint64_t> errors(config.clients, 0);
  std::vector<std::thread> workers;
  workers.reserve(config.clients);
  const auto wall_start = Clock::now();
  for (size_t c = 0; c < config.clients; ++c) {
    workers.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        std::fprintf(stderr, "client %zu connect: %s\n", c,
                     client.status().ToString().c_str());
        return;
      }
      if (config.open_qps > 0.0) {
        // Open loop: this client owns every clients-th arrival of the
        // aggregate schedule.
        const double interval =
            static_cast<double>(config.clients) / config.open_qps;
        const auto t0 = Clock::now();
        for (size_t i = 0;; ++i) {
          const double at = static_cast<double>(i) * interval;
          if (at >= config.open_duration_seconds) break;
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(at));
          std::this_thread::sleep_until(due);
          lateness[c].push_back(
              std::chrono::duration<double>(Clock::now() - due).count());
          if (!SubmitOnce(&*client, ClassToken(c + i * 7, reads, updates),
                          due, &latencies[c], &completed[c], &errors[c])) {
            return;
          }
        }
      } else {
        for (size_t i = 0; i < config.requests_per_client; ++i) {
          if (!SubmitOnce(&*client, ClassToken(c + i * 7, reads, updates),
                          Clock::now(), &latencies[c], &completed[c],
                          &errors[c])) {
            return;
          }
        }
      }
      client->Call("QUIT");
    });
  }
  for (auto& w : workers) w.join();

  LoadResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  for (size_t c = 0; c < config.clients; ++c) {
    result.completed += completed[c];
    result.errors += errors[c];
    for (double s : latencies[c]) result.latency.Add(s);
    for (double s : lateness[c]) result.lateness.Add(s);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string_view {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--clients") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n == 0) return Fail("--clients needs a count");
      config.clients = *n;
    } else if (arg == "--requests") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n == 0) return Fail("--requests needs a count");
      config.requests_per_client = *n;
    } else if (arg == "--open-qps") {
      const std::optional<double> qps = ParseFiniteDouble(value());
      if (!qps || *qps <= 0.0) return Fail("--open-qps needs a rate");
      config.open_qps = *qps;
    } else if (arg == "--duration") {
      const std::optional<double> seconds = ParseFiniteDouble(value());
      if (!seconds || *seconds <= 0.0) return Fail("--duration needs seconds");
      config.open_duration_seconds = *seconds;
    } else if (arg == "--port") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n == 0 || *n > UINT16_MAX) return Fail("--port needs a port");
      config.external_port = static_cast<uint16_t>(*n);
    } else if (arg == "--out") {
      const std::string_view v = value();
      if (v.empty()) return Fail("--out needs a path");
      config.out_path = v;
    } else if (arg == "--smoke") {
      config.smoke = true;
      config.clients = 4;
      config.requests_per_client = 200;
    } else {
      return Fail(("unknown flag " + arg).c_str());
    }
  }

  // Build the table the in-process server routes (and that parity
  // verification replays). External mode discovers the class universe via
  // HEALTH instead.
  net::RoutingTable table;
  const Status built = bench::BuildTpcAppRoutingTable(&table);
  if (!built.ok()) {
    std::fprintf(stderr, "routing table: %s\n", built.ToString().c_str());
    return 1;
  }

  uint16_t port = config.external_port;
  size_t reads = table.cls.reads.size();
  size_t updates = table.cls.updates.size();
  std::unique_ptr<net::QueryRoutingServer> server;
  if (port == 0) {
    auto created = net::QueryRoutingServer::Create(table.cls, table.alloc, {});
    if (!created.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    server = std::move(created).value();
    if (!server->Start().ok()) return 1;
    port = server->port();
  } else {
    auto probe = net::Client::Connect("127.0.0.1", port);
    if (!probe.ok()) {
      std::fprintf(stderr, "connect: %s\n", probe.status().ToString().c_str());
      return 1;
    }
    auto health = probe->Call("HEALTH");
    if (!health.ok() || health->rfind("OK HEALTH ", 0) != 0) {
      std::fprintf(stderr, "HEALTH probe failed\n");
      return 1;
    }
    // "... read_classes=<n> update_classes=<m> ...".
    const std::optional<uint64_t> r = HealthField(*health, "read_classes=");
    const std::optional<uint64_t> u = HealthField(*health, "update_classes=");
    if (!r || !u) return 1;
    reads = *r;
    updates = *u;
    probe->Call("QUIT");
  }
  if (reads == 0) {
    std::fprintf(stderr, "no read classes to route\n");
    return 1;
  }

  const char* mode = config.open_qps > 0.0 ? "open" : "closed";
  std::printf("bench_serving: %s loop, %zu clients, port %u (%s server)\n",
              mode, config.clients, port,
              server ? "in-process" : "external");
  LoadResult load = RunLoad(config, port, reads, updates);

  bool verified = false;
  if (server) {
    server->Stop();
    verified = bench::VerifyRoutingParity(table.cls, table.alloc);
    if (!verified) {
      std::fprintf(stderr, "routing parity verification FAILED\n");
      return 1;
    }
  }

  std::vector<double> scratch;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  load.latency.Percentiles(&scratch, &p50, &p95, &p99);
  const double qps =
      load.wall_seconds > 0.0
          ? static_cast<double>(load.completed) / load.wall_seconds
          : 0.0;
  std::printf(
      "requests %llu  errors %llu  qps %.0f  latency ms p50 %.3f  p95 %.3f  "
      "p99 %.3f  max %.3f%s\n",
      static_cast<unsigned long long>(load.completed),
      static_cast<unsigned long long>(load.errors), qps, p50 * 1e3, p95 * 1e3,
      p99 * 1e3, load.latency.max() * 1e3,
      server ? (verified ? "  [routing parity OK]" : "") : "");
  if (config.open_qps > 0.0) {
    // Lateness means the generator itself fell behind its schedule, so the
    // run did not offer the load asked for; the latencies above include it.
    std::printf("generator lateness ms p99 %.3f  max %.3f\n",
                load.lateness.Percentile(0.99) * 1e3,
                load.lateness.max() * 1e3);
  }

  if (!config.out_path.empty()) {
    std::FILE* out = std::fopen(config.out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"bench_serving\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"clients\": %zu,\n"
                 "  \"backends\": %zu,\n"
                 "  \"requests\": %llu,\n"
                 "  \"errors\": %llu,\n"
                 "  \"qps\": %.1f,\n"
                 "  \"p50_ms\": %.4f,\n"
                 "  \"p95_ms\": %.4f,\n"
                 "  \"p99_ms\": %.4f,\n"
                 "  \"max_ms\": %.4f,\n"
                 "  \"routing_parity_verified\": %s\n"
                 "}\n",
                 mode, config.clients, table.alloc.num_backends(),
                 static_cast<unsigned long long>(load.completed),
                 static_cast<unsigned long long>(load.errors), qps, p50 * 1e3,
                 p95 * 1e3, p99 * 1e3, load.latency.max() * 1e3,
                 verified ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", config.out_path.c_str());
  }
  return 0;
}

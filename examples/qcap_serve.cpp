// qcap_serve: run the networked query-routing server (docs/SERVING.md)
// over a TPC-App-style workload.
//
// The pipeline is the standard QCAP front half — classify the journal,
// allocate onto homogeneous backends — and the resulting
// (Classification, Allocation) pair is installed behind a TCP endpoint:
// clients SUBMIT a query class and get back the backend the scheduler
// routes it to, with STATS / METRICS / HEALTH observability and FAULT
// injection for failover drills.
//
// Build & run:  ./build/examples/qcap_serve --port 7411
// Talk to it:   ./build/bench/bench_serving --port 7411   (or any client
//               speaking the framed protocol; see docs/SERVING.md)
//
// `--selfcheck` starts the server on an ephemeral port, replays the
// documented example session against it, prints the transcript, and
// exits; the examples smoke test runs this mode.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <thread>

#include "alloc/greedy.h"
#include "alloc/layout.h"
#include "common/strings.h"
#include "model/validation.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads/tpcapp.h"

using namespace qcap;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int Fail(const char* message) {
  std::fprintf(stderr, "qcap_serve: %s\n", message);
  std::fprintf(stderr,
               "usage: qcap_serve [--port P] [--backends N] [--rate QPS] "
               "[--burst TOKENS] [--max-sessions N] [--selfcheck]\n");
  return 2;
}

/// Replays the documented example session (docs/SERVING.md, "Example
/// session") and prints the transcript. Returns false on any transport
/// error.
bool RunSelfCheck(uint16_t port) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return false;
  }
  const char* script[] = {
      "HEALTH",       "SUBMIT R0", "SUBMIT R0", "DONE 0",
      "SUBMIT U0",    "STATS",     "FAULT CRASH 1", "SUBMIT R0",
      "FAULT RECOVER 1", "FAULT DEGRADE 1 1.5", "FAULT DEGRADE 1 1",
      "RELOAD 5",     "SUBMIT R0", "METRICS",   "QUIT",
  };
  for (const char* request : script) {
    auto reply = client->Call(request);
    if (!reply.ok()) {
      std::fprintf(stderr, "%s: %s\n", request,
                   reply.status().ToString().c_str());
      return false;
    }
    std::printf("> %s\n< %s\n", request, reply->c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7411;
  size_t backends_n = 4;
  bool selfcheck = false;
  net::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string_view {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--port") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n > UINT16_MAX) return Fail("--port needs a number");
      port = static_cast<uint16_t>(*n);
    } else if (arg == "--backends") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n == 0) return Fail("--backends needs a count");
      backends_n = *n;
    } else if (arg == "--rate") {
      const std::optional<double> qps = ParseFiniteDouble(value());
      if (!qps) return Fail("--rate needs a per-class qps");
      options.limits.rate_limit_qps = *qps;
    } else if (arg == "--burst") {
      const std::optional<double> tokens = ParseFiniteDouble(value());
      if (!tokens) return Fail("--burst needs a token count");
      options.limits.rate_limit_burst = *tokens;
    } else if (arg == "--max-sessions") {
      const std::optional<uint64_t> n = ParseUint(value());
      if (!n || *n == 0) return Fail("--max-sessions needs a count");
      options.max_sessions = *n;
    } else if (arg == "--selfcheck") {
      selfcheck = true;
    } else {
      return Fail(("unknown flag " + arg).c_str());
    }
  }
  options.port = selfcheck ? 0 : port;

  // Classify the TPC-App journal and allocate onto homogeneous backends.
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  GreedyAllocator greedy;
  auto layout = BuildLayout(catalog, workloads::TpcAppJournal(200000),
                            {Granularity::kTable}, greedy,
                            HomogeneousBackends(backends_n));
  if (!layout.ok()) {
    std::fprintf(stderr, "layout: %s\n", layout.status().ToString().c_str());
    return 1;
  }
  const Classification& cls = layout->classification;

  auto server =
      net::QueryRoutingServer::Create(cls, layout->allocation, options);
  if (!server.ok()) {
    std::fprintf(stderr, "create: %s\n", server.status().ToString().c_str());
    return 1;
  }
  // RELOAD [backends]: recompute the allocation (optionally on a new
  // cluster size) and hot-swap the routing table without dropping a
  // session — the serving-side half of the adaptive control loop
  // (autonomic/control_loop.h decides, this endpoint executes).
  (*server)->dispatcher().SetReloadProvider(
      [&cls](std::string_view tag) -> Result<net::RoutingTable> {
        const std::optional<uint64_t> n = ParseUint(tag);
        if (!n || *n == 0 || *n > 64) {
          return Status::InvalidArgument(
              "usage: RELOAD <backends in 1..64>");
        }
        const std::vector<BackendSpec> target = HomogeneousBackends(*n);
        GreedyAllocator allocator;
        QCAP_ASSIGN_OR_RETURN(Allocation next,
                              allocator.Allocate(cls, target));
        QCAP_RETURN_NOT_OK(ValidateAllocation(cls, next, target));
        return net::RoutingTable{cls, std::move(next)};
      });
  if (Status st = (*server)->Start(); !st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }

  // Print the routing table so clients know what to SUBMIT.
  std::printf("qcap_serve listening on 127.0.0.1:%u (%zu backends)\n",
              (*server)->port(), backends_n);
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    std::printf("  R%zu  %-24s weight %.3f\n", r, cls.reads[r].label.c_str(),
                cls.reads[r].weight);
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    std::printf("  U%zu  %-24s weight %.3f\n", u, cls.updates[u].label.c_str(),
                cls.updates[u].weight);
  }

  if (selfcheck) {
    const bool ok = RunSelfCheck((*server)->port());
    (*server)->Stop();
    return ok ? 0 : 1;
  }

  std::printf("Ctrl-C to stop.\n");
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  (*server)->Stop();
  std::printf("stopped after %llu sessions\n",
              static_cast<unsigned long long>((*server)->sessions_accepted()));
  return 0;
}

// The serving scenario: the TPC-App routing table the serving workloads
// install, the seeded request stream they send, and the routing-parity
// check that proves the server routes exactly like a direct Scheduler.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "cluster/pending_index.h"
#include "cluster/scheduler.h"
#include "common/random.h"
#include "model/validation.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {

/// The routing table of BENCH_serving.json: TPC-App at EB=300, classified
/// at table granularity, greedy-allocated onto 4 homogeneous backends.
inline Status BuildTpcAppRoutingTable(net::RoutingTable* out) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog,
                        ClassifierOptions{Granularity::kTable, 4, true});
  QCAP_ASSIGN_OR_RETURN(out->cls, classifier.Classify(journal));
  const std::vector<BackendSpec> backends = HomogeneousBackends(4);
  GreedyAllocator greedy;
  QCAP_ASSIGN_OR_RETURN(out->alloc, greedy.Allocate(out->cls, backends));
  return ValidateAllocation(out->cls, out->alloc, backends);
}

/// A seeded 7:1 read:update stream of SUBMIT request lines, uniform over
/// the read (resp. update) classes.
inline std::vector<std::string> SubmitStream(uint64_t seed, size_t n,
                                             size_t reads, size_t updates) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (updates > 0 && rng.NextBounded(8) == 7) {
      out.push_back("SUBMIT U" + std::to_string(rng.NextBounded(updates)));
    } else {
      out.push_back("SUBMIT R" + std::to_string(rng.NextBounded(reads)));
    }
  }
  return out;
}

/// Backend ids named by a routed SUBMIT reply ("OK BACKEND 2" or
/// "OK BACKENDS 0 1 3"); false for any other reply.
inline bool RoutedBackends(const std::string& reply,
                           std::vector<size_t>* backends) {
  backends->clear();
  if (reply.rfind("OK BACKEND", 0) != 0) return false;
  size_t pos = reply.find(' ', 3);
  while (pos != std::string::npos && pos + 1 < reply.size()) {
    const size_t start = pos + 1;
    pos = reply.find(' ', start);
    const std::string id = reply.substr(start, pos - start);
    if (id.empty() || id.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    backends->push_back(static_cast<size_t>(std::stoul(id)));
  }
  return !backends->empty();
}

/// Replays a fixed 400-step read sequence through a fresh server and a
/// directly built Scheduler with mirrored pending bookkeeping. True iff
/// every routing decision is bit-identical.
inline bool VerifyRoutingParity(const Classification& cls,
                                const Allocation& alloc) {
  auto server = net::QueryRoutingServer::Create(cls, alloc, {});
  if (!server.ok() || !(*server)->Start().ok()) return false;
  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  auto direct = Scheduler::Build(cls, alloc);
  if (!client.ok() || !direct.ok()) return false;
  std::vector<size_t> pending(alloc.num_backends(), 0);
  std::deque<size_t> outstanding;
  const size_t reads = cls.reads.size();
  for (size_t step = 0; step < 400; ++step) {
    const size_t r = (step * 7) % reads;
    const size_t expected = direct->PickReadBackend(r, pending);
    auto reply = client->Call("SUBMIT R" + std::to_string(r));
    if (!reply.ok()) return false;
    if (expected == PendingIndex::kNone) {
      if (reply->rfind("ERR UNSERVABLE", 0) != 0) return false;
      continue;
    }
    if (*reply != "OK BACKEND " + std::to_string(expected)) return false;
    ++pending[expected];
    outstanding.push_back(expected);
    if (step % 3 == 2) {
      const size_t done = outstanding.front();
      outstanding.pop_front();
      --pending[done];
      if (!client->Call("DONE " + std::to_string(done)).ok()) return false;
    }
  }
  client->Call("QUIT");
  (*server)->Stop();
  return true;
}

}  // namespace qcap::bench

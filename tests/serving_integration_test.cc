// End-to-end serving tests (docs/SERVING.md): spawn a real
// QueryRoutingServer on an ephemeral loopback port and exercise every
// documented verb and every documented error response over actual TCP
// sessions, check routing parity against direct Scheduler calls, and pin
// the STATS/METRICS accounting under concurrent clients.
#include "net/server.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/pending_index.h"
#include "cluster/scheduler.h"
#include "common/strings.h"
#include "model/allocation.h"
#include "net/client.h"
#include "test_util.h"

namespace qcap::net {
namespace {

/// Appendix A workload on 4 backends: backend 0 holds everything,
/// backends 1..3 hold one relation each. Read candidates: R0{A}->{0,1},
/// R1{B}->{0,2}, R2{C}->{0,3}, R3{A,B}->{0}. Update targets mirror reads.
Allocation MakeAllocation() {
  Allocation alloc(4, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  return alloc;
}

class ServingTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    cls_ = testutil::AppendixAClassification();
    alloc_ = MakeAllocation();
    auto server = QueryRoutingServer::Create(cls_, alloc_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static std::string Call(Client* client, const std::string& request) {
    auto reply = client->Call(request);
    EXPECT_TRUE(reply.ok()) << request << ": " << reply.status().ToString();
    return reply.ok() ? *reply : std::string();
  }

  Classification cls_;
  Allocation alloc_;
  std::unique_ptr<QueryRoutingServer> server_;
};

size_t ParseBackend(const std::string& reply) {
  EXPECT_EQ(reply.rfind("OK BACKEND ", 0), 0u) << reply;
  const std::optional<uint64_t> backend =
      ParseUint(std::string_view(reply).substr(11));
  EXPECT_TRUE(backend.has_value()) << reply;
  return backend.value_or(0);
}

TEST_F(ServingTest, HealthReportsTopology) {
  StartServer();
  Client client = Connect();
  const std::string reply = Call(&client, "HEALTH");
  EXPECT_EQ(reply.rfind("OK HEALTH backends=4 alive=4 read_classes=4 "
                        "update_classes=3 uptime_seconds=",
                        0),
            0u)
      << reply;
}

TEST_F(ServingTest, SubmitRoutesReadsLeastPendingFirst) {
  StartServer();
  Client client = Connect();
  // R3 = {A,B} is exclusively on backend 0.
  EXPECT_EQ(Call(&client, "SUBMIT R3"), "OK BACKEND 0");
  // Backend 0 now has depth 1, so R0 = {A} prefers the idle backend 1.
  EXPECT_EQ(Call(&client, "SUBMIT R0"), "OK BACKEND 1");
  // DONE drains the depth again.
  EXPECT_EQ(Call(&client, "DONE 0"), "OK DONE");
  EXPECT_EQ(Call(&client, "DONE 1"), "OK DONE");
  EXPECT_EQ(Call(&client, "DONE 1"), "OK DONE stale");
}

TEST_F(ServingTest, SubmitRoutesUpdatesToEveryReplica) {
  StartServer();
  Client client = Connect();
  // U0 = {A}: ROWA fan-out to backends 0 and 1.
  EXPECT_EQ(Call(&client, "SUBMIT U0"), "OK BACKENDS 0 1");
  EXPECT_EQ(Call(&client, "DONE 0"), "OK DONE");
  EXPECT_EQ(Call(&client, "DONE 1"), "OK DONE");
}

// The acceptance bar: the server's routing decisions are bit-identical to
// direct Scheduler calls for the same class sequence. Replays a 500-step
// deterministic SUBMIT/DONE mix through one session while mirroring the
// exact bookkeeping (pending depths, completion order) against a local
// Scheduler built from the same classification and allocation.
TEST_F(ServingTest, RoutingMatchesDirectSchedulerCalls) {
  StartServer();
  Client client = Connect();
  auto direct = Scheduler::Build(cls_, alloc_);
  ASSERT_TRUE(direct.ok());
  std::vector<size_t> pending(alloc_.num_backends(), 0);
  std::deque<size_t> outstanding;  // backends with un-acked work, FIFO
  for (int step = 0; step < 500; ++step) {
    const size_t r = static_cast<size_t>(step * 7 % 4);
    const size_t expected = direct->PickReadBackend(r, pending);
    ASSERT_NE(expected, PendingIndex::kNone);
    ++pending[expected];
    outstanding.push_back(expected);
    const size_t got =
        ParseBackend(Call(&client, "SUBMIT R" + std::to_string(r)));
    ASSERT_EQ(got, expected) << "diverged at step " << step;
    if (step % 3 == 2) {
      const size_t done = outstanding.front();
      outstanding.pop_front();
      --pending[done];
      ASSERT_EQ(Call(&client, "DONE " + std::to_string(done)), "OK DONE");
    }
  }
}

TEST_F(ServingTest, StatsCountersAddUpUnderConcurrentClients) {
  StartServer();
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 200;
  std::vector<std::thread> workers;
  workers.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    workers.emplace_back([this, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      for (size_t i = 0; i < kPerClient; ++i) {
        auto reply = client->Call("SUBMIT R" + std::to_string((c + i) % 4));
        ASSERT_TRUE(reply.ok());
        const size_t backend = ParseBackend(*reply);
        auto done = client->Call("DONE " + std::to_string(backend));
        ASSERT_TRUE(done.ok());
        ASSERT_EQ(done->rfind("OK DONE", 0), 0u);
      }
    });
  }
  for (auto& w : workers) w.join();

  // In-process snapshot and the STATS verb must agree with the offered load.
  const ServingCounters counters = server_->dispatcher().Snapshot();
  EXPECT_EQ(counters.reads_routed, kClients * kPerClient);
  EXPECT_EQ(counters.done_acks, kClients * kPerClient);
  for (size_t depth : counters.pending) EXPECT_EQ(depth, 0u);

  Client client = Connect();
  const std::string stats = Call(&client, "STATS");
  EXPECT_NE(stats.find(" reads=" + std::to_string(kClients * kPerClient)),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find(" pending=0,0,0,0"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" alive=1,1,1,1"), std::string::npos) << stats;
  EXPECT_EQ(server_->sessions_accepted(), kClients + 1);
}

TEST_F(ServingTest, FaultCrashRecoverLifecycle) {
  StartServer();
  Client client = Connect();
  // Crash backend 0: R3 = {A,B} lives only there.
  EXPECT_EQ(Call(&client, "FAULT CRASH 0"), "OK FAULT crashed 0");
  EXPECT_EQ(Call(&client, "SUBMIT R3"),
            "ERR UNSERVABLE no live backend holds R3's data");
  // R0 = {A} fails over to backend 1.
  EXPECT_EQ(Call(&client, "SUBMIT R0"), "OK BACKEND 1");
  // U0 = {A} commits on the surviving replica only.
  EXPECT_EQ(Call(&client, "SUBMIT U0"), "OK BACKENDS 1");
  // Crash the survivor too: now U0 has no live replica at all.
  EXPECT_EQ(Call(&client, "FAULT CRASH 1"), "OK FAULT crashed 1");
  EXPECT_EQ(Call(&client, "SUBMIT U0"),
            "ERR UNSERVABLE every replica of U0 is down");
  // Recovery rejoins with an empty queue and restores service.
  EXPECT_EQ(Call(&client, "FAULT RECOVER 0"), "OK FAULT recovered 0");
  EXPECT_EQ(Call(&client, "SUBMIT R3"), "OK BACKEND 0");
  const std::string health = Call(&client, "HEALTH");
  EXPECT_NE(health.find("alive=3"), std::string::npos) << health;
}

// Recovering a backend that never crashed must not forget its queue: the
// simulator's recover of a live backend is a no-op, and the server's must
// be too, or the DONE for work still queued there reads as stale, the
// done count undercounts and least-pending routing sees a busy backend as
// idle.
TEST_F(ServingTest, RecoverOfALiveBackendKeepsItsQueueAndDegrade) {
  StartServer();
  Client client = Connect();
  // R3 = {A,B} is exclusively on backend 0.
  EXPECT_EQ(Call(&client, "SUBMIT R3"), "OK BACKEND 0");
  EXPECT_EQ(Call(&client, "FAULT DEGRADE 0 2"),
            "OK FAULT degraded 0 factor 2");
  EXPECT_EQ(Call(&client, "FAULT RECOVER 0"), "OK FAULT recovered 0");
  const std::string stats = Call(&client, "STATS");
  EXPECT_NE(stats.find(" pending=1,0,0,0"), std::string::npos) << stats;
  const std::string metrics = Call(&client, "METRICS");
  EXPECT_NE(metrics.find("qcap_backend_degrade{backend=\"0\"} 2\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(Call(&client, "DONE 0"), "OK DONE");
  const std::string after = Call(&client, "STATS");
  EXPECT_NE(after.find(" done=1"), std::string::npos) << after;
  EXPECT_NE(after.find(" pending=0,0,0,0"), std::string::npos) << after;
}

TEST_F(ServingTest, AdmissionControlRejectsOverBudgetSubmits) {
  ServerOptions options;
  options.limits.rate_limit_qps = 0.5;  // refills ~nothing within the test
  options.limits.rate_limit_burst = 2.0;
  StartServer(options);
  Client client = Connect();
  EXPECT_EQ(Call(&client, "SUBMIT R0"), "OK BACKEND 0");
  EXPECT_EQ(Call(&client, "SUBMIT R0"), "OK BACKEND 1");
  EXPECT_EQ(Call(&client, "SUBMIT R0"), "ERR RATE_LIMITED class=R0");
  // Other classes keep their own budget.
  EXPECT_EQ(Call(&client, "SUBMIT R1"), "OK BACKEND 2");
  const std::string stats = Call(&client, "STATS");
  EXPECT_NE(stats.find(" rejected=1"), std::string::npos) << stats;
}

TEST_F(ServingTest, EveryDocumentedErrorResponse) {
  StartServer();
  Client client = Connect();
  EXPECT_EQ(Call(&client, "FROBNICATE"),
            "ERR BAD_REQUEST unknown verb 'FROBNICATE'");
  EXPECT_EQ(Call(&client, ""), "ERR BAD_REQUEST empty request");
  EXPECT_EQ(Call(&client, "SUBMIT"), "ERR BAD_REQUEST usage: SUBMIT R<i>|U<j>");
  EXPECT_EQ(Call(&client, "SUBMIT X0"),
            "ERR BAD_REQUEST usage: SUBMIT R<i>|U<j>");
  EXPECT_EQ(Call(&client, "SUBMIT R99"),
            "ERR BAD_CLASS R99 out of range (have 4 reads, 3 updates)");
  EXPECT_EQ(Call(&client, "SUBMIT U3"),
            "ERR BAD_CLASS U3 out of range (have 4 reads, 3 updates)");
  EXPECT_EQ(Call(&client, "DONE"), "ERR BAD_REQUEST usage: DONE <backend>");
  EXPECT_EQ(Call(&client, "DONE 99"),
            "ERR BAD_BACKEND 99 out of range (have 4)");
  EXPECT_EQ(Call(&client, "FAULT CRASH"),
            "ERR BAD_REQUEST usage: FAULT CRASH|RECOVER <backend> | "
            "FAULT DEGRADE <backend> <factor>");
  EXPECT_EQ(Call(&client, "FAULT EXPLODE 1"),
            "ERR BAD_REQUEST usage: FAULT CRASH|RECOVER <backend> | "
            "FAULT DEGRADE <backend> <factor>");
  EXPECT_EQ(Call(&client, "FAULT CRASH 99"),
            "ERR BAD_BACKEND 99 out of range (have 4)");
  EXPECT_EQ(Call(&client, "FAULT DEGRADE 0 2abc"),
            "ERR BAD_REQUEST degrade factor must be finite and > 0");
  const std::string stats = Call(&client, "STATS");
  EXPECT_NE(stats.find(" bad=12"), std::string::npos) << stats;
}

// Requests are split into at most five fields plus a true field count:
// a request with more fields than its verb takes, however many, still
// gets the verb's usage error, and any run of spaces or tabs separates.
TEST_F(ServingTest, TooManyFieldsGetTheVerbsUsageError) {
  StartServer();
  Client client = Connect();
  EXPECT_EQ(Call(&client, "SUBMIT R0 R1 R2 R3 R4 R5"),
            "ERR BAD_REQUEST usage: SUBMIT R<i>|U<j>");
  EXPECT_EQ(Call(&client, "DONE 0 1 2 3 4 5 6"),
            "ERR BAD_REQUEST usage: DONE <backend>");
  EXPECT_EQ(Call(&client, "FAULT DEGRADE 0 2 x"),
            "ERR BAD_REQUEST usage: FAULT CRASH|RECOVER <backend> | "
            "FAULT DEGRADE <backend> <factor>");
  EXPECT_EQ(Call(&client, "FAULT CRASH 0 1 2 3 4 5"),
            "ERR BAD_REQUEST usage: FAULT CRASH|RECOVER <backend> | "
            "FAULT DEGRADE <backend> <factor>");
  EXPECT_EQ(Call(&client, "RELOAD a b c d e f"),
            "ERR BAD_REQUEST usage: RELOAD [tag]");
  EXPECT_EQ(Call(&client, " \tSUBMIT \t R3\t "), "OK BACKEND 0");
  EXPECT_EQ(Call(&client, "DONE\t0"), "OK DONE");
  const std::string stats = Call(&client, "STATS");
  EXPECT_NE(stats.find(" bad=5"), std::string::npos) << stats;
}

TEST_F(ServingTest, OversizedFrameGetsErrorThenDisconnect) {
  ServerOptions options;
  options.max_frame_bytes = 64;
  StartServer(options);
  Client client = Connect();
  // Declare a 1 MiB payload without sending it: framing cannot recover
  // from a length lie, so the server errors and closes the session.
  const char header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_TRUE(client.socket().SendAll(header, sizeof(header)).ok());
  auto reply = client.ReadResponse();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "ERR FRAME_TOO_LARGE max payload 64 bytes");
  auto eof = client.ReadResponse();
  EXPECT_TRUE(eof.status().IsNotFound());  // orderly close
}

TEST_F(ServingTest, QuitClosesTheSessionAfterReplying) {
  StartServer();
  Client client = Connect();
  EXPECT_EQ(Call(&client, "QUIT"), "OK BYE");
  auto eof = client.ReadResponse();
  EXPECT_TRUE(eof.status().IsNotFound());
  // The server keeps serving new sessions.
  Client next = Connect();
  EXPECT_EQ(Call(&next, "SUBMIT R0"), "OK BACKEND 0");
}

TEST_F(ServingTest, SessionCeilingAnswersBusy) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  Client first = Connect();
  // Completing a call proves the first session is established.
  Call(&first, "HEALTH");
  Client second = Connect();
  auto busy = second.ReadResponse();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(*busy, "ERR BUSY session limit 1 reached");
  EXPECT_TRUE(second.ReadResponse().status().IsNotFound());
  // The first session is unaffected.
  EXPECT_EQ(Call(&first, "SUBMIT R0"), "OK BACKEND 0");
}

TEST_F(ServingTest, MetricsOnIdleServerAreZeroSafe) {
  StartServer();
  Client client = Connect();
  const std::string reply = Call(&client, "METRICS");
  ASSERT_EQ(reply.rfind("OK METRICS\n", 0), 0u) << reply;
  // No SUBMIT has happened: the percentile path runs on an empty sample
  // vector and must report clean zeros (the hardened stats helpers).
  EXPECT_NE(reply.find("qcap_routing_latency_seconds{quantile=\"0.50\"} 0\n"),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("qcap_routing_latency_seconds{quantile=\"0.99\"} 0\n"),
            std::string::npos);
  EXPECT_NE(reply.find("qcap_routing_latency_samples 0\n"), std::string::npos);
  EXPECT_NE(reply.find("qcap_reads_routed_total 0\n"), std::string::npos);
  EXPECT_EQ(reply.find("nan"), std::string::npos) << reply;
}

TEST_F(ServingTest, MetricsTrackRoutedTraffic) {
  StartServer();
  Client client = Connect();
  for (int i = 0; i < 50; ++i) {
    const std::string reply = Call(&client, "SUBMIT R" + std::to_string(i % 4));
    ASSERT_EQ(reply.rfind("OK BACKEND ", 0), 0u);
    Call(&client, "DONE " + std::to_string(ParseBackend(reply)));
  }
  const std::string metrics = Call(&client, "METRICS");
  EXPECT_NE(metrics.find("qcap_reads_routed_total 50\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("qcap_routing_latency_samples 50\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("qcap_backend_pending{backend=\"0\"} 0\n"),
            std::string::npos);
}

TEST_F(ServingTest, PipelinedRequestsInOneWriteAreAnsweredInOrder) {
  StartServer();
  Client client = Connect();
  // Write three frames back-to-back before reading anything: the buffered
  // session must decode and answer all of them in order.
  std::string wire;
  AppendFrame(&wire, "SUBMIT R3");
  AppendFrame(&wire, "SUBMIT R3");
  AppendFrame(&wire, "STATS");
  ASSERT_TRUE(client.socket().SendAll(wire.data(), wire.size()).ok());
  auto first = client.ReadResponse();
  auto second = client.ReadResponse();
  auto third = client.ReadResponse();
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(*first, "OK BACKEND 0");
  EXPECT_EQ(*second, "OK BACKEND 0");
  EXPECT_EQ(third->rfind("OK STATS ", 0), 0u);
}

TEST_F(ServingTest, StopDisconnectsClientsAndIsIdempotent) {
  StartServer();
  Client client = Connect();
  Call(&client, "HEALTH");
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_EQ(server_->open_sessions(), 0u);
  auto eof = client.ReadResponse();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServingTest, StartTwiceFails) {
  StartServer();
  EXPECT_FALSE(server_->Start().ok());
}

}  // namespace
}  // namespace qcap::net

// The serving hot path in steady state (docs/SERVING.md): routed SUBMITs,
// DONEs and latency records make no heap allocation, memory stays flat
// however many requests the dispatcher routes, and METRICS scrapes from a
// second thread race with nothing (run under TSan in CI).
//
// The binary replaces the global operator new with a counting one
// (counting_new.h), so these tests live apart from the other serving tests.
#include "net/dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "counting_new.h"
#include "model/allocation.h"
#include "test_util.h"

namespace qcap::net {
namespace {

/// Appendix A workload on 4 backends, as in serving_integration_test:
/// R0{A}->{0,1}, R1{B}->{0,2}, R2{C}->{0,3}, R3{A,B}->{0}; every update
/// fans out to two replicas ("OK BACKENDS 0 1" still fits inline).
std::unique_ptr<Dispatcher> MakeDispatcher() {
  Allocation alloc(4, 3, 4, 3);
  alloc.PlaceSet(0, {0, 1, 2});
  alloc.PlaceSet(1, {0});
  alloc.PlaceSet(2, {1});
  alloc.PlaceSet(3, {2});
  auto dispatcher = Dispatcher::Create(testutil::AppendixAClassification(),
                                       alloc, ServingLimits{});
  EXPECT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  return std::move(dispatcher).value();
}

/// Request lines built once, so the loops below allocate nothing of their
/// own: SUBMITs over every class, and one DONE per backend.
struct Requests {
  std::vector<std::string> submits = {"SUBMIT R0", "SUBMIT R1", "SUBMIT R2",
                                      "SUBMIT R3", "SUBMIT U0", "SUBMIT U1",
                                      "SUBMIT U2"};
  std::vector<std::string> dones = {"DONE 0", "DONE 1", "DONE 2", "DONE 3"};
};

/// One routed SUBMIT, its latency record, and a DONE for every backend it
/// named. Returns false if the SUBMIT was not routed or a DONE not applied.
bool RouteOne(Dispatcher* dispatcher, const Requests& requests, size_t i,
              double now) {
  const Dispatcher::Reply reply =
      dispatcher->Execute(requests.submits[i % requests.submits.size()], now);
  if (!reply.routed) return false;
  dispatcher->RecordRoutingLatency(1e-6 * static_cast<double>(1 + i % 97));
  // "OK BACKEND 2" or "OK BACKENDS 0 1": the ids follow the second space.
  std::string_view ids = std::string_view(reply.text).substr(11);
  while (!ids.empty()) {
    if (ids.front() == ' ') {
      ids.remove_prefix(1);
      continue;
    }
    const size_t end = std::min(ids.find(' '), ids.size());
    const std::optional<uint64_t> backend = ParseUint(ids.substr(0, end));
    if (!backend || *backend >= requests.dones.size()) return false;
    if (dispatcher->Execute(requests.dones[*backend], now).text != "OK DONE") {
      return false;
    }
    ids.remove_prefix(end);
  }
  return true;
}

/// Resident set size in kB, from /proc/self/status; 0 if unreadable.
size_t VmRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // "VmRSS:\t   12345 kB"
    const std::string_view text(line);
    if (text.rfind("VmRSS:", 0) == 0) {
      const size_t start = text.find_first_of("0123456789");
      const size_t end = text.find_first_not_of("0123456789", start);
      if (start != std::string_view::npos) {
        kb = ParseUint(text.substr(start, end - start)).value_or(0);
      }
      break;
    }
  }
  std::fclose(f);
  return kb;
}

TEST(ServingHotPathTest, RoutedRequestsMakeNoHeapAllocation) {
  std::unique_ptr<Dispatcher> dispatcher = MakeDispatcher();
  const Requests requests;
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(RouteOne(dispatcher.get(), requests, i, 1.0));
  }
  const uint64_t before = testutil::heap_allocations.load();
  bool all_routed = true;
  for (size_t i = 0; i < 10000; ++i) {
    all_routed &= RouteOne(dispatcher.get(), requests, i, 2.0);
  }
  const uint64_t allocations = testutil::heap_allocations.load() - before;
  EXPECT_TRUE(all_routed);
  EXPECT_EQ(allocations, 0u);
}

TEST(ServingHotPathTest, MemoryStaysFlatOverTwoMillionRequests) {
  constexpr size_t kRequests = 2000000;
  constexpr size_t kScrapeEvery = 100000;
  std::unique_ptr<Dispatcher> dispatcher = MakeDispatcher();
  const Requests requests;
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(RouteOne(dispatcher.get(), requests, i, 1.0));
  }
  ASSERT_EQ(dispatcher->Execute("METRICS", 1.0).text.rfind("OK METRICS", 0),
            0u);
  const size_t rss_before = VmRssKb();
  ASSERT_GT(rss_before, 0u);
  size_t failed = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    if (!RouteOne(dispatcher.get(), requests, i, 2.0)) ++failed;
    if ((i + 1) % kScrapeEvery == 0) {
      const std::string metrics = dispatcher->Execute("METRICS", 2.0).text;
      if (metrics.rfind("OK METRICS", 0) != 0) ++failed;
    }
  }
  const size_t rss_after = VmRssKb();
  const size_t growth_kb = rss_after > rss_before ? rss_after - rss_before : 0;
  EXPECT_EQ(failed, 0u);
  // Keeping every sample, as an exact accumulator would, costs 16 MB here.
  EXPECT_LT(growth_kb, 2048u);
  const std::string metrics = dispatcher->Execute("METRICS", 3.0).text;
  EXPECT_NE(metrics.find("qcap_routing_latency_samples " +
                         std::to_string(kRequests + 1000) + "\n"),
            std::string::npos)
      << metrics;
}

TEST(ServingHotPathTest, ScrapesRaceWithNothingWhileRecording) {
  constexpr size_t kRequests = 100000;
  std::unique_ptr<Dispatcher> dispatcher = MakeDispatcher();
  const Requests requests;
  std::atomic<bool> done{false};
  size_t scrapes = 0;
  size_t bad_scrapes = 0;
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string metrics = dispatcher->Execute("METRICS", 1.0).text;
      if (metrics.rfind("OK METRICS", 0) != 0) ++bad_scrapes;
      ++scrapes;
      const ServingCounters snapshot = dispatcher->Snapshot();
      if (snapshot.pending.size() != 4) ++bad_scrapes;
      // Paced like a real scraper, so the recorder is not starved of the
      // routing lock.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  size_t failed = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    if (!RouteOne(dispatcher.get(), requests, i, 1.0)) ++failed;
  }
  done.store(true);
  scraper.join();
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(bad_scrapes, 0u);
  EXPECT_GT(scrapes, 0u);
  const std::string metrics = dispatcher->Execute("METRICS", 2.0).text;
  EXPECT_NE(metrics.find("qcap_routing_latency_samples " +
                         std::to_string(kRequests) + "\n"),
            std::string::npos)
      << metrics;
}

}  // namespace
}  // namespace qcap::net

// E17 / Section 5 Figure 6: per-class request mix over a day, the sliding
// window segmentation it induces, and the merged multi-segment allocation.
//
// Paper shape: class B dominates at night (3-8 am) and has the lowest
// share during the day; the one-hour sliding window splits the example day
// into ~4 segments; the merged allocation serves every segment without
// reallocation.
#include <cstdio>

#include "alloc/greedy.h"
#include "autonomic/segmentation.h"
#include "bench_util.h"
#include "cluster/scheduler.h"
#include "workloads/trace.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(40000, 23);

  // Figure 6: class mix per hour (requests per 10 minutes, scaled).
  PrintHeader("Figure 6: query class mix over the day (req/10min)",
              {"hour", "A", "B", "C", "D", "E"}, 9);
  const auto day = workloads::SampleDay(23);
  for (size_t i = 0; i < day.size(); i += 6) {
    std::vector<std::string> row = {
        std::to_string(static_cast<int>(day[i].tod_seconds / 3600.0))};
    for (double c : day[i].class_requests) row.push_back(Fmt(c, 0));
    PrintRow(row, 9);
  }

  // Segmentation.
  auto segments = ValueOrDie(SegmentJournal(journal), "segment");
  std::printf("\nsegments found with a 1h sliding window (threshold %.2f):\n",
              kSegmentMixThreshold);
  for (const auto& seg : segments) {
    std::printf("  %5.1fh .. %5.1fh\n", seg.begin_seconds / 3600.0,
                seg.end_seconds / 3600.0);
  }
  std::printf("paper: the example day decomposes into 4 segments.\n");

  // Merged allocation: allocate each segment, merge, verify coverage.
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(4);
  const ClassifierOptions copts{Granularity::kTable, 4, true};
  Allocation merged =
      ValueOrDie(SegmentedAllocation(journal, segments, catalog, copts,
                                     &greedy, backends),
                 "merged allocation");
  Classifier classifier(catalog, copts);
  size_t servable = 0;
  for (const auto& seg : segments) {
    const QueryJournal slice = journal.Slice(seg.begin_seconds, seg.end_seconds);
    if (slice.empty()) continue;
    Classification cls = ValueOrDie(classifier.Classify(slice), "classify");
    Allocation reshaped =
        ValueOrDie(PlacementForClassification(merged, cls), "reshape");
    if (Scheduler::Build(cls, reshaped).ok()) ++servable;
  }
  Classification full_cls =
      ValueOrDie(classifier.Classify(journal), "classify full");
  Allocation merged_shaped =
      ValueOrDie(PlacementForClassification(merged, full_cls), "reshape full");
  std::printf(
      "\nmerged allocation: %zu/%zu segments servable without reallocation; "
      "degree of replication %.2f on %zu backends\n",
      servable, segments.size(),
      DegreeOfReplication(merged_shaped, full_cls.catalog), backends.size());
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E17: workload segmentation (Section 5, Figure 6)\n");
  qcap::bench::Run();
  return 0;
}

// Partitioning advisor walkthrough: let the library pick the best
// classification granularity for two very different workloads and print
// the full operator report for the winner.
//
// Build & run:  ./build/examples/partitioning_advisor
#include <cstdio>

#include "qcap.h"
#include "workloads/timeseries.h"
#include "workloads/tpch.h"

using namespace qcap;

namespace {

const char* GranularityName(Granularity g) {
  switch (g) {
    case Granularity::kTable: return "table";
    case Granularity::kColumn: return "column";
    case Granularity::kHorizontal: return "horizontal";
    case Granularity::kHybrid: return "hybrid";
    case Granularity::kNone: return "none";
  }
  return "?";
}

int Advise(const char* title, const engine::Catalog& catalog,
           const QueryJournal& journal, const AdvisorOptions& options,
           size_t nodes) {
  GreedyAllocator greedy;
  PartitioningAdvisor advisor(catalog, &greedy, options);
  auto choice = advisor.Advise(journal, HomogeneousBackends(nodes));
  if (!choice.ok()) {
    std::fprintf(stderr, "%s: %s\n", title, choice.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== %s (%zu backends) ===\n", title, nodes);
  std::printf("%-12s %14s %14s\n", "granularity", "model speedup",
              "replication");
  for (const auto& candidate : choice->evaluated) {
    std::printf("%-12s %14.2f %14.2f%s\n",
                GranularityName(candidate.granularity),
                candidate.layout.model_speedup,
                candidate.layout.degree_of_replication,
                candidate.granularity == choice->best.granularity
                    ? "   <- chosen"
                    : "");
  }
  std::printf(
      "\n%s",
      RenderClassificationReport(choice->best.layout.classification).c_str());
  return 0;
}

}  // namespace

int main() {
  // Analytical read-heavy workload: columnar fragments win on storage.
  {
    const engine::Catalog catalog = workloads::TpchCatalog(1.0);
    AdvisorOptions options;  // table / column / hybrid.
    if (Advise("TPC-H (read-only analytics)", catalog,
               workloads::TpchJournal(10000), options, 8) != 0) {
      return 1;
    }
  }
  // Append-mostly time-series: predicate (range) fragments win on
  // throughput by isolating the ingest tail.
  {
    const engine::Catalog catalog = workloads::TimeSeriesCatalog(1.0);
    AdvisorOptions options;
    options.candidates = {Granularity::kTable, Granularity::kColumn,
                          Granularity::kHorizontal};
    options.horizontal_partitions = workloads::kTimeSeriesPartitions;
    if (Advise("time-series (append-mostly)", catalog,
               workloads::TimeSeriesJournal(100000), options, 8) != 0) {
      return 1;
    }
  }
  return 0;
}

// E19 / Appendix C: cost of k-safety -- storage and model speedup at
// k = 0, 1, 2 for TPC-H (column-based, read-only) and TPC-App
// (table-based, update-heavy) on 10 backends.
//
// Paper shape: in the read-only case extra replicas cost storage but not
// theoretical speedup; with updates, replicated update classes reduce the
// achievable speedup.
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void Report(const char* workload, const engine::Catalog& catalog,
            const QueryJournal& journal, Granularity granularity) {
  PrintHeader(std::string("k-safety on ") + workload,
              {"k", "repl-degree", "model-speedup", "min-replicas"}, 16);
  for (int k : {0, 1, 2}) {
    KSafetyOptions opts;
    opts.k = k;
    KSafeGreedyAllocator allocator(opts);
    Layout p = ValueOrDie(
        BuildLayout(catalog, journal, {granularity}, allocator,
                    HomogeneousBackends(10)),
        "pipeline");
    ValidationOptions vopts;
    vopts.k_safety = k;
    CheckOk(ValidateAllocation(p.classification, p.allocation, p.backends,
                               vopts),
            "k-safety validation");
    size_t min_replicas = 10;
    for (FragmentId f = 0; f < p.classification.catalog.size(); ++f) {
      min_replicas = std::min(min_replicas, p.allocation.ReplicaCount(f));
    }
    PrintRow({std::to_string(k), Fmt(p.degree_of_replication, 2),
              Fmt(p.model_speedup, 2), std::to_string(min_replicas)},
             16);
  }
}

void Run() {
  Report("TPC-H (column-based, read-only)", workloads::TpchCatalog(1.0),
         workloads::TpchJournal(10000), Granularity::kColumn);
  std::printf(
      "paper shape: read-only k-safety costs storage only; the theoretical "
      "speedup is unaffected.\n");
  Report("TPC-App (table-based, update-heavy)", workloads::TpcAppCatalog(300.0),
         workloads::TpcAppJournal(200000), Granularity::kTable);
  std::printf(
      "paper shape: replicated update classes reduce the achievable "
      "speedup as k grows.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E19: k-safety extension (Appendix C)\n");
  qcap::bench::Run();
  return 0;
}

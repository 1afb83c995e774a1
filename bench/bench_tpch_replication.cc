// E5 / Figure 4(c): TPC-H degree of replication for full replication,
// table-based, column-based, and the exact (MILP) column-based optimum.
//
// Paper shape: full = number of backends; table-based slightly below full
// (the fact tables are ~80% of the bytes and referenced everywhere);
// column-based much lower (r = 3.5 at 10 backends); the greedy heuristic
// is very close to the optimum.
//
// Substitution note: the paper solved the optimal column-based ILP with a
// commercial solver up to 7 backends; our from-scratch branch-and-bound is
// exact but slower, so the optimal line is computed on a table-granular
// program over the 8 heaviest templates, up to 3 backends. The
// greedy-vs-optimal gap is what the figure demonstrates, and that
// comparison is preserved (greedy is recomputed on the same reduced
// instance for an apples-to-apples gap).
#include <algorithm>
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/optimal.h"
#include "bench_util.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

/// The 8 heaviest TPC-H templates: the instance on which the exact MILP is
/// tractable for our from-scratch branch-and-bound.
QueryJournal ReducedJournal() {
  auto queries = workloads::TpchQueries();
  std::sort(queries.begin(), queries.end(),
            [](const Query& a, const Query& b) { return a.cost > b.cost; });
  QueryJournal journal;
  for (size_t i = 0; i < 8; ++i) journal.Record(queries[i], 500);
  return journal;
}

void Run() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  const QueryJournal reduced = ReducedJournal();
  FullReplicationAllocator full;
  GreedyAllocator greedy;

  PrintHeader("Figure 4(c): TPC-H degree of replication",
              {"backends", "full-repl", "table", "column", "optimal(table)"},
              24);
  for (size_t n = 1; n <= 10; ++n) {
    Layout pf = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kTable}, full,
                    HomogeneousBackends(n)),
        "full");
    Layout pt = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                    HomogeneousBackends(n)),
        "table");
    Layout pc = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                    HomogeneousBackends(n)),
        "column");
    std::string optimal_cell = "-";
    if (n <= 3) {
      OptimalOptions opts;
      opts.milp.max_nodes = 40000;
      OptimalAllocator optimal(opts);
      auto po = BuildLayout(catalog, reduced, {Granularity::kTable}, optimal,
                            HomogeneousBackends(n));
      auto pg = BuildLayout(catalog, reduced, {Granularity::kTable}, greedy,
                            HomogeneousBackends(n));
      if (po.ok() && pg.ok()) {
        optimal_cell = Fmt(po->degree_of_replication, 3) + " (greedy " +
                       Fmt(pg->degree_of_replication, 3) + ")";
      } else {
        optimal_cell = "limit";
      }
    }
    PrintRow({std::to_string(n), Fmt(pf.degree_of_replication, 2),
              Fmt(pt.degree_of_replication, 2),
              Fmt(pc.degree_of_replication, 2), optimal_cell},
             24);
  }
  std::printf(
      "\npaper shape: full = n; table-based uses >80%% of full; "
      "column-based reaches r~3.5 at 10 backends; greedy within ~0.03 of "
      "the optimum where the exact program is solvable.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E5: TPC-H degree of replication (Figure 4c)\n");
  qcap::bench::Run();
  return 0;
}

// SQL-driven workflow: build a query history from SQL text, persist it,
// reload it, and compute a partial replication from it — the full
// journal-analysis loop of Section 3.1 against textual queries.
//
// Build & run:  ./build/examples/sql_workload
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/layout.h"
#include "common/strings.h"
#include "physical/physical_allocator.h"
#include "workload/journal_io.h"
#include "workload/sql_parser.h"
#include "workloads/tpch.h"

using namespace qcap;

int main() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  SqlParser parser(catalog);

  // A recorded journal: (statement, executions, measured seconds).
  struct Entry {
    const char* sql;
    uint64_t count;
    double seconds;
  };
  const Entry history[] = {
      {"SELECT l_returnflag, l_linestatus, sum(l_quantity), "
       "sum(l_extendedprice) FROM lineitem WHERE l_shipdate <= '1998-09-02' "
       "GROUP BY l_returnflag, l_linestatus",
       400, 12.0},
      {"SELECT o_orderpriority, count(*) FROM orders WHERE o_orderdate >= "
       "'1993-07-01' GROUP BY o_orderpriority",
       700, 2.0},
      {"SELECT c.c_name, sum(o.o_totalprice) FROM customer c JOIN orders o "
       "ON c.c_custkey = o.o_custkey GROUP BY c.c_name",
       500, 6.5},
      {"SELECT s_name, s_phone FROM supplier WHERE s_acctbal > 5000", 900,
       0.4},
      {"SELECT p_brand, count(*) FROM part GROUP BY p_brand", 300, 1.1},
      {"UPDATE supplier SET s_acctbal = s_acctbal + 10 WHERE s_suppkey = 42",
       2500, 0.002},
      {"INSERT INTO orders (o_orderkey, o_custkey, o_totalprice, "
       "o_orderdate) VALUES (1, 2, 3.5, '1998-01-01')",
       4000, 0.001},
  };

  QueryJournal journal;
  for (const Entry& entry : history) {
    auto query = parser.Parse(entry.sql, entry.seconds);
    if (!query.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    journal.Record(query.value(), entry.count);
  }
  std::printf("parsed %zu distinct statements, %llu executions\n",
              journal.NumDistinct(),
              static_cast<unsigned long long>(journal.TotalExecutions()));

  // Persist and reload (the query-history store).
  const std::string path = "/tmp/qcap_sql_workload.journal";
  if (Status st = SaveJournal(journal, path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto reloaded = LoadJournal(path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("journal round-tripped through %s (%llu executions)\n",
              path.c_str(),
              static_cast<unsigned long long>(reloaded->TotalExecutions()));

  // Allocate from the reloaded history at column granularity.
  GreedyAllocator greedy;
  auto layout = BuildLayout(catalog, reloaded.value(), {Granularity::kColumn},
                            greedy, HomogeneousBackends(4));
  if (!layout.ok()) {
    std::fprintf(stderr, "%s\n", layout.status().ToString().c_str());
    return 1;
  }
  auto load = PhysicalAllocator().InitialLoad(
      layout->allocation, layout->classification.catalog, true);
  if (!load.ok()) {
    std::fprintf(stderr, "%s\n", load.status().ToString().c_str());
    return 1;
  }
  std::printf("\nclasses: %zu reads, %zu updates\n",
              layout->classification.reads.size(),
              layout->classification.updates.size());
  std::printf("%s",
              layout->allocation.ToString(layout->classification).c_str());
  std::printf(
      "model speedup %.2f of 4, degree of replication %.2f, initial load "
      "%s\n",
      layout->model_speedup, layout->degree_of_replication,
      FormatBytes(load->total_bytes).c_str());
  return 0;
}

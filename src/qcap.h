// Umbrella header for the QCAP library: query-centric partitioning and
// allocation for partially replicated database systems (Rabl & Jacobsen,
// SIGMOD 2017).
//
// Typical flow:
//   engine::Catalog  – describe the schema          (engine/catalog.h)
//   CostModel        – price query classes          (exec/cost_model.h)
//   QueryJournal     – record the query history     (workload/journal.h)
//   SqlParser        – build queries from SQL text  (workload/sql_parser.h)
//   Classifier       – queries -> weighted classes  (workload/classifier.h)
//   Allocator        – classes -> partial replication (alloc/*.h)
//   ValidateAllocation / metrics                    (model/*.h)
//   BuildLayout      – classify + allocate + validate (alloc/layout.h)
//   PhysicalAllocator – materialize with minimal movement (physical/*.h)
//   ClusterSimulator – run it                       (cluster/*.h)
//   AdaptiveController – scale, heal, re-allocate live (autonomic/*.h)
#pragma once

#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

#include "engine/catalog.h"
#include "engine/schema_io.h"
#include "engine/types.h"

#include "workload/classifier.h"
#include "workload/fragment.h"
#include "workload/journal.h"
#include "workload/journal_io.h"
#include "workload/query.h"
#include "workload/query_class.h"
#include "workload/sql_parser.h"

#include "model/allocation.h"
#include "model/backend.h"
#include "model/metrics.h"
#include "model/json_export.h"
#include "model/report.h"
#include "model/validation.h"

#include "solver/hungarian.h"
#include "solver/milp.h"
#include "solver/simplex.h"

#include "alloc/advisor.h"
#include "alloc/allocator.h"
#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "alloc/layout.h"
#include "alloc/memetic.h"
#include "alloc/optimal.h"
#include "alloc/random_allocator.h"
#include "alloc/robustness.h"

#include "physical/etl_cost.h"
#include "physical/physical_allocator.h"
#include "physical/scaling.h"

#include "exec/cost_model.h"

#include "cluster/backend_node.h"
#include "cluster/fault_plan.h"
#include "cluster/scheduler.h"
#include "cluster/simulator.h"
#include "cluster/stats.h"

#include "autonomic/control_loop.h"
#include "autonomic/segmentation.h"

// Controller facade mirroring the prototype architecture (Figure 3): a
// middleware that records a query history, switches to allocation mode to
// (re)compute and materialize a data layout, and switches to query
// processing mode to drive the simulated backends.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "alloc/allocator.h"
#include "cluster/simulator.h"
#include "engine/catalog.h"
#include "physical/physical_allocator.h"
#include "workload/classifier.h"
#include "workload/journal.h"

namespace qcap {

/// Result of one allocation-mode pass.
struct AllocationReport {
  Classification classification;
  Allocation allocation;
  /// Scale/speedup predicted by the analytical model.
  double model_scale = 1.0;
  double model_speedup = 1.0;
  double degree_of_replication = 1.0;
  /// ETL plan for materializing the new allocation.
  TransitionPlan transition;
};

/// \brief Single-controller CDBS: query history + allocation + processing.
class Controller {
 public:
  /// \p catalog describes the schema; the controller starts with no
  /// backends and no allocation.
  explicit Controller(const engine::Catalog& catalog,
                      EtlCostModel etl = EtlCostModel{})
      : catalog_(catalog), physical_(etl) {}

  /// Records one executed query in the history (driver feedback loop).
  void RecordQuery(const Query& query, uint64_t count = 1) {
    history_.Record(query, count);
  }

  /// Parses \p sql against the schema catalog and records it with the
  /// measured per-execution \p cost_seconds.
  Status RecordSql(const std::string& sql, double cost_seconds,
                   uint64_t count = 1);
  /// Replaces the whole history (e.g. with a synthesized journal).
  void SetHistory(QueryJournal journal) { history_ = std::move(journal); }
  const QueryJournal& history() const { return history_; }

  /// Allocation mode: classifies the history at \p options' granularity,
  /// runs \p allocator for \p backends, validates the result, and plans the
  /// migration from the current allocation (or an initial load).
  Result<AllocationReport> Reallocate(Allocator* allocator,
                                      const std::vector<BackendSpec>& backends,
                                      const ClassifierOptions& options);

  /// Query processing mode, closed loop: saturating throughput test.
  Result<SimStats> ProcessClosed(uint64_t num_requests, size_t concurrency,
                                 const SimulationConfig& config) const;

  /// Query processing mode, open loop: response times at an arrival rate.
  Result<SimStats> ProcessOpen(double duration_seconds, double arrival_rate,
                               const SimulationConfig& config) const;

  /// True once Reallocate() succeeded at least once.
  bool has_allocation() const { return current_.has_value(); }
  const AllocationReport& current() const { return *current_; }
  const std::vector<BackendSpec>& backends() const { return backends_; }

 private:
  const engine::Catalog& catalog_;
  PhysicalAllocator physical_;
  QueryJournal history_;
  std::vector<BackendSpec> backends_;
  std::optional<AllocationReport> current_;
};

}  // namespace qcap

#include "alloc/layout.h"

#include "model/metrics.h"
#include "model/validation.h"

namespace qcap {

Result<Layout> BuildLayout(const engine::Catalog& catalog,
                           const QueryJournal& journal,
                           const ClassifierOptions& options,
                           Allocator& allocator,
                           std::vector<BackendSpec> backends) {
  Layout layout;
  QCAP_ASSIGN_OR_RETURN(layout.classification,
                        Classifier(catalog, options).Classify(journal));
  QCAP_ASSIGN_OR_RETURN(layout.allocation,
                        allocator.Allocate(layout.classification, backends));
  QCAP_RETURN_NOT_OK(
      ValidateAllocation(layout.classification, layout.allocation, backends));
  layout.model_scale = Scale(layout.allocation, backends);
  layout.model_speedup = Speedup(layout.allocation, backends);
  layout.degree_of_replication =
      DegreeOfReplication(layout.allocation, layout.classification.catalog);
  layout.backends = std::move(backends);
  return layout;
}

}  // namespace qcap

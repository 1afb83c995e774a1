// Deterministic synthetic large-instance workloads (ROADMAP item 2).
//
// The paper's workloads (TPC-H, TPC-App, horizontal grids) top out at a few
// hundred classes over a few hundred fragments. The scale-up bench family
// needs instances of B=256 x 10k fragments x 100k classes, far past what
// journal classification can synthesize in bench-setup time, so this
// generator emits a Classification directly: fragment catalog with skewed
// sizes, read classes drawing their fragment sets from a Zipfian co-access
// distribution (popular fragments are referenced by many classes), and
// update classes over disjoint locality windows (so update-update overlap
// chains — and therefore the transitive closures — stay bounded instead of
// collapsing into one giant component).
//
// Everything is a pure function of ScaleOptions (including the seed): the
// same options produce the same Classification bit-for-bit on every
// platform, which the scalar-vs-SIMD parity job relies on.
#pragma once

#include <cstdint>

#include "workload/query_class.h"

namespace qcap::workloads {

/// Parameters of one synthetic large instance.
struct ScaleOptions {
  size_t num_fragments = 10000;
  size_t num_read_classes = 100000;
  size_t num_update_classes = 2000;
  /// Zipf exponent of the fragment co-access distribution (reads).
  double zipf_exponent = 1.1;
  uint64_t seed = 1;
};

/// Builds the synthetic Classification. The result passes
/// Classification::Validate() (weights normalized to 1, sorted unique
/// fragment sets, labels assigned). Each read class references 2-8
/// fragments, each update class 1-4 from its locality window, and update
/// classes carry a quarter of the total weight.
Classification MakeScaleClassification(const ScaleOptions& options);

}  // namespace qcap::workloads

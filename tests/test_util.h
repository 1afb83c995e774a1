// Shared fixtures for the test suite: the paper's worked examples as
// ready-made classifications.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"
#include "workloads/synthetic_scale.h"

namespace qcap::testutil {

/// Figure 2 (Section 3): read-only, C1={A} 30%, C2={B} 25%, C3={C} 25%,
/// C4={A,B} 20%; equal-size relations A,B,C.
inline Classification Figure2Classification() {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 1.0).ok());
  cls.reads = {
      QueryClass{{0}, 0.30, 1.0, false, "C1", {}},
      QueryClass{{1}, 0.25, 1.0, false, "C2", {}},
      QueryClass{{2}, 0.25, 1.0, false, "C3", {}},
      QueryClass{{0, 1}, 0.20, 1.0, false, "C4", {}},
  };
  return cls;
}

/// Appendix A: Q1={A} 24%, Q2={B} 20%, Q3={C} 20%, Q4={A,B} 16%;
/// U1={A} 4%, U2={B} 10%, U3={C} 6%; equal-size relations.
inline Classification AppendixAClassification() {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 1.0).ok());
  cls.reads = {
      QueryClass{{0}, 0.24, 1.0, false, "Q1", {}},
      QueryClass{{1}, 0.20, 1.0, false, "Q2", {}},
      QueryClass{{2}, 0.20, 1.0, false, "Q3", {}},
      QueryClass{{0, 1}, 0.16, 1.0, false, "Q4", {}},
  };
  cls.updates = {
      QueryClass{{0}, 0.04, 1.0, true, "U1", {}},
      QueryClass{{1}, 0.10, 1.0, true, "U2", {}},
      QueryClass{{2}, 0.06, 1.0, true, "U3", {}},
  };
  return cls;
}

/// The Appendix A heterogeneous backends: 30/30/20/20.
inline std::vector<BackendSpec> AppendixABackends() {
  auto r = HeterogeneousBackends({0.3, 0.3, 0.2, 0.2});
  EXPECT_TRUE(r.ok());
  return r.value();
}

/// Fragments {0, 1}, read {0} with weight 1, and update {0, 1} with weight
/// 0: the smallest input with a zero-weight update class, which Validate
/// accepts.
inline Classification ZeroWeightUpdateClassification() {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 1.0, false, "Q1", {}}};
  cls.updates = {QueryClass{{0, 1}, 0.0, 1.0, true, "U1", {}}};
  EXPECT_TRUE(cls.Validate().ok());
  return cls;
}

/// \p cls with the weight of every third update class (0, 3, 6, ...) moved
/// onto read class 0: the weights still sum to one, and some update
/// classes weigh zero.
inline Classification WithZeroWeightUpdates(Classification cls) {
  for (size_t u = 0; u < cls.updates.size(); u += 3) {
    cls.reads[0].weight += cls.updates[u].weight;
    cls.updates[u].weight = 0.0;
  }
  EXPECT_TRUE(cls.Validate().ok());
  return cls;
}

/// \p cls with three fragments appended that no read class references:
/// one nothing references, and two that only two new update classes touch,
/// {u1, u2} with weight 0.01 taken from read class 0 and {u2} with weight
/// zero.
inline Classification WithUnreadData(Classification cls) {
  const auto f = static_cast<FragmentId>(cls.catalog.size());
  EXPECT_TRUE(cls.catalog.Add("x", "x", FragmentKind::kTable, 3e6).ok());
  EXPECT_TRUE(cls.catalog.Add("u1", "u", FragmentKind::kTable, 2e6).ok());
  EXPECT_TRUE(cls.catalog.Add("u2", "u", FragmentKind::kTable, 5e6).ok());
  cls.reads[0].weight -= 0.01;
  cls.updates.push_back(QueryClass{{f + 1, f + 2}, 0.01, 1.0, true, "UX", {}});
  cls.updates.push_back(QueryClass{{f + 2}, 0.0, 1.0, true, "UY", {}});
  EXPECT_TRUE(cls.Validate().ok());
  return cls;
}

/// One FNV-1a step over \p n bytes at \p p.
inline void HashBytes(uint64_t* h, const void* p, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) *h = (*h ^ bytes[i]) * 1099511628211ULL;
}

/// FNV-1a over the backend count and, per backend, the placement row, the
/// read-assignment row and every update assignment: a bitwise fingerprint
/// of an allocation (the same hash the benchmark harness compares).
inline uint64_t AllocationDigest(const Allocation& a) {
  uint64_t h = 1469598103934665603ULL;
  const size_t num_backends = a.num_backends();
  HashBytes(&h, &num_backends, sizeof(num_backends));
  for (size_t b = 0; b < num_backends; ++b) {
    const ConstBitSpan row = a.RowBits(b);
    HashBytes(&h, row.words(), row.num_words() * sizeof(uint64_t));
    const std::span<const double> reads = a.ReadAssignRow(b);
    HashBytes(&h, reads.data(), reads.size() * sizeof(double));
    for (size_t u = 0; u < a.num_updates(); ++u) {
      const double w = a.update_assign(b, u);
      HashBytes(&h, &w, sizeof(w));
    }
  }
  return h;
}

/// AllocationDigest continued over the per-backend running aggregates:
/// assigned read load, assigned update load and, when sizes are bound,
/// stored bytes. They are sums in the order the edits ran, so two
/// allocations with equal rows, shares and pins differ here when their
/// pins or placements ran in a different order.
inline uint64_t AggregateDigest(const Allocation& a) {
  uint64_t h = AllocationDigest(a);
  const auto add = [&h](std::span<const double> column) {
    HashBytes(&h, column.data(), column.size() * sizeof(double));
  };
  add(a.ReadLoadColumn());
  add(a.UpdateLoadColumn());
  if (a.sizes_bound()) add(a.BackendBytesColumn());
  return h;
}

/// One pinned allocation: a synthetic instance with F fragments, 5F/2 read
/// and F/10 update classes, allocated over \p backends homogeneous backends.
struct GoldenCase {
  size_t fragments;
  size_t backends;
  double zipf;
  uint64_t seed;
  uint64_t digest;
  uint64_t aggregate = 0;  // AggregateDigest, where a test pins it too.
};

inline Classification GoldenInstance(const GoldenCase& g) {
  workloads::ScaleOptions so;
  so.num_fragments = g.fragments;
  so.num_read_classes = g.fragments * 5 / 2;
  so.num_update_classes = g.fragments / 10;
  so.zipf_exponent = g.zipf;
  so.seed = g.seed;
  return workloads::MakeScaleClassification(so);
}

}  // namespace qcap::testutil

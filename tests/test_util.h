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

/// FNV-1a over the backend count and, per backend, the placement row, the
/// read-assignment row and every update assignment: a bitwise fingerprint
/// of an allocation (the same hash the benchmark harness compares).
inline uint64_t AllocationDigest(const Allocation& a) {
  uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  const size_t num_backends = a.num_backends();
  add(&num_backends, sizeof(num_backends));
  for (size_t b = 0; b < num_backends; ++b) {
    const ConstBitSpan row = a.RowBits(b);
    add(row.words(), row.num_words() * sizeof(uint64_t));
    const std::span<const double> reads = a.ReadAssignRow(b);
    add(reads.data(), reads.size() * sizeof(double));
    for (size_t u = 0; u < a.num_updates(); ++u) {
      const double w = a.update_assign(b, u);
      add(&w, sizeof(w));
    }
  }
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

#include "model/json_export.h"

#include <cstdio>

#include "common/strings.h"
#include "model/metrics.h"

namespace qcap {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string ClassJson(const Classification& cls, const QueryClass& c) {
  std::string out = "{";
  out += "\"label\":\"" + JsonEscape(c.label) + "\",";
  out += std::string("\"kind\":\"") + (c.is_update ? "update" : "read") + "\",";
  out += "\"weight\":" + Num(c.weight) + ",";
  out += "\"mean_cost\":" + Num(c.mean_cost) + ",";
  out += "\"bytes\":" + Num(cls.catalog.SetBytes(c.fragments)) + ",";
  out += "\"fragments\":[";
  for (size_t i = 0; i < c.fragments.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(c.fragments[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string ClassificationToJson(const Classification& cls) {
  std::string out = "{\"fragments\":[";
  for (size_t f = 0; f < cls.catalog.size(); ++f) {
    const Fragment& fragment = cls.catalog.Get(static_cast<FragmentId>(f));
    if (f > 0) out += ",";
    out += "{\"id\":" + std::to_string(fragment.id) + ",\"name\":\"" +
           JsonEscape(fragment.name) + "\",\"table\":\"" +
           JsonEscape(fragment.table) + "\",\"bytes\":" +
           Num(fragment.size_bytes) + "}";
  }
  out += "],\"reads\":[";
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    if (r > 0) out += ",";
    out += ClassJson(cls, cls.reads[r]);
  }
  out += "],\"updates\":[";
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    if (u > 0) out += ",";
    out += ClassJson(cls, cls.updates[u]);
  }
  out += "],\"total_bytes\":" + Num(cls.catalog.TotalBytes()) + "}";
  return out;
}

std::string AllocationToJson(const Classification& cls,
                             const Allocation& alloc,
                             const std::vector<BackendSpec>& backends) {
  std::string out = "{\"metrics\":{";
  out += "\"scale\":" + Num(Scale(alloc, backends)) + ",";
  out += "\"speedup\":" + Num(Speedup(alloc, backends)) + ",";
  out += "\"degree_of_replication\":" +
         Num(DegreeOfReplication(alloc, cls.catalog)) + ",";
  out += "\"balance_deviation\":" + Num(BalanceDeviation(alloc, backends));
  out += "},\"backends\":[";
  for (size_t b = 0; b < alloc.num_backends(); ++b) {
    if (b > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(backends[b].name) + "\",";
    out += "\"relative_load\":" + Num(backends[b].relative_load) + ",";
    out += "\"assigned_load\":" + Num(alloc.AssignedLoad(b)) + ",";
    out += "\"stored_bytes\":" + Num(alloc.BackendBytes(b, cls.catalog)) + ",";
    out += "\"fragments\":[";
    const FragmentSet fragments = alloc.BackendFragments(b);
    for (size_t i = 0; i < fragments.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(fragments[i]);
    }
    out += "],\"read_assign\":{";
    bool first = true;
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (alloc.read_assign(b, r) <= 0.0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(cls.reads[r].label) +
             "\":" + Num(alloc.read_assign(b, r));
    }
    out += "},\"update_assign\":{";
    first = true;
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      if (alloc.update_assign(b, u) <= 0.0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(cls.updates[u].label) +
             "\":" + Num(alloc.update_assign(b, u));
    }
    out += "}}";
  }
  out += "],\"replica_histogram\":[";
  const auto hist = ReplicationHistogram(alloc);
  for (size_t k = 0; k < hist.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(hist[k]);
  }
  out += "]}";
  return out;
}

}  // namespace qcap

#include "workload/fragment.h"

#include <algorithm>
#include <cmath>

namespace qcap {

Result<FragmentId> FragmentCatalog::Add(std::string name, std::string table,
                                        FragmentKind kind, double size_bytes) {
  if (name.empty()) {
    return Status::InvalidArgument("fragment name must not be empty");
  }
  if (size_bytes < 0.0) {
    return Status::InvalidArgument("fragment '" + name + "' has negative size");
  }
  if (!std::isfinite(size_bytes)) {
    return Status::InvalidArgument("fragment '" + name +
                                   "' has non-finite size");
  }
  if (by_name_.count(name) != 0) {
    return Status::AlreadyExists("fragment '" + name + "' already registered");
  }
  FragmentId id = static_cast<FragmentId>(fragments_.size());
  by_name_[name] = id;
  fragments_.push_back(Fragment{id, std::move(name), std::move(table), kind,
                                size_bytes});
  return id;
}

Result<FragmentId> FragmentCatalog::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no fragment named '" + name + "'");
  }
  return it->second;
}

double FragmentCatalog::SetBytes(const FragmentSet& set) const {
  double total = 0.0;
  for (FragmentId id : set) total += fragments_[id].size_bytes;
  return total;
}

double FragmentCatalog::DifferenceBytes(ConstBitSpan want,
                                        ConstBitSpan have) const {
  double total = 0.0;
  for (size_t w = 0; w < want.num_words(); ++w) {
    uint64_t bits = want.words()[w];
    if (w < have.num_words()) bits &= ~have.words()[w];
    while (bits != 0) {
      total += fragments_[w * 64 + __builtin_ctzll(bits)].size_bytes;
      bits &= bits - 1;
    }
  }
  return total;
}

double FragmentCatalog::TotalBytes() const {
  double total = 0.0;
  for (const auto& f : fragments_) total += f.size_bytes;
  return total;
}

void NormalizeSet(FragmentSet* set) {
  std::sort(set->begin(), set->end());
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

FragmentSet SetUnion(const FragmentSet& a, const FragmentSet& b) {
  FragmentSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

FragmentSet SetIntersection(const FragmentSet& a, const FragmentSet& b) {
  FragmentSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

FragmentSet SetDifference(const FragmentSet& a, const FragmentSet& b) {
  FragmentSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool IsSubset(const FragmentSet& a, const FragmentSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool Intersects(const FragmentSet& a, const FragmentSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

bool Contains(const FragmentSet& set, FragmentId id) {
  return std::binary_search(set.begin(), set.end(), id);
}

}  // namespace qcap

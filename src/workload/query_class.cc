#include "workload/query_class.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace qcap {

std::vector<size_t> Classification::OverlappingUpdates(const QueryClass& c) const {
  std::vector<size_t> out;
  for (size_t u = 0; u < updates.size(); ++u) {
    if (Intersects(c.fragments, updates[u].fragments)) out.push_back(u);
  }
  return out;
}

double Classification::OverlappingUpdateWeight(const QueryClass& c) const {
  double w = 0.0;
  for (size_t u : OverlappingUpdates(c)) w += updates[u].weight;
  return w;
}

FragmentSet Classification::FragmentsWithUpdates(const QueryClass& c) const {
  FragmentSet out = c.fragments;
  for (size_t u : OverlappingUpdates(c)) {
    out = SetUnion(out, updates[u].fragments);
  }
  return out;
}

double Classification::TotalWeight() const {
  double total = 0.0;
  for (const auto& c : reads) total += c.weight;
  for (const auto& c : updates) total += c.weight;
  return total;
}

Status Classification::Validate() const {
  auto check_class = [&](const QueryClass& c, bool is_update) -> Status {
    if (c.fragments.empty()) {
      return Status::InvalidArgument("class '" + c.label +
                                     "' references no fragments");
    }
    // Negated so a NaN weight fails too.
    if (!(c.weight >= 0.0 && c.weight <= 1.0 + 1e-9)) {
      return Status::InvalidArgument("class '" + c.label +
                                     "' has weight outside [0,1]");
    }
    // Zero is legal: the simulator floors the cost at 1e-12.
    if (!std::isfinite(c.mean_cost) || c.mean_cost < 0.0) {
      return Status::InvalidArgument("class '" + c.label +
                                     "' has a non-finite or negative mean cost");
    }
    if (c.is_update != is_update) {
      return Status::InvalidArgument("class '" + c.label +
                                     "' is in the wrong class set");
    }
    FragmentId prev = 0;
    bool first = true;
    for (FragmentId id : c.fragments) {
      if (id >= catalog.size()) {
        return Status::InvalidArgument("class '" + c.label +
                                       "' references unknown fragment id");
      }
      if (!first && id <= prev) {
        return Status::InvalidArgument("class '" + c.label +
                                       "' fragment set not sorted/unique");
      }
      prev = id;
      first = false;
    }
    return Status::OK();
  };
  for (const auto& c : reads) QCAP_RETURN_NOT_OK(check_class(c, false));
  for (const auto& c : updates) QCAP_RETURN_NOT_OK(check_class(c, true));
  if (NumClasses() > 0) {
    double total = TotalWeight();
    if (std::abs(total - 1.0) > 1e-6) {
      return Status::InvalidArgument("class weights sum to " +
                                     std::to_string(total) + ", expected 1");
    }
  }
  return Status::OK();
}

namespace {

/// Union-find with path halving; used for the update-overlap components.
size_t FindRoot(std::vector<size_t>* parent, size_t x) {
  std::vector<size_t>& p = *parent;
  while (p[x] != x) {
    p[x] = p[p[x]];
    x = p[x];
  }
  return x;
}

}  // namespace

ClassificationIndex::ClassificationIndex(const Classification& cls)
    : num_fragments_(cls.catalog.size()),
      num_reads_(cls.reads.size()),
      num_updates_(cls.updates.size()),
      frag_words_((cls.catalog.size() + 63) / 64),
      upd_words_((cls.updates.size() + 63) / 64) {
  const size_t F = num_fragments_;
  const size_t R = num_reads_;
  const size_t U = num_updates_;
  constexpr size_t kNoStamp = std::numeric_limits<size_t>::max();

  // SoA bitset pools and scalar columns, carved once.
  read_bits_ = arena_.AllocateZeroed<uint64_t>(R * frag_words_);
  update_bits_ = arena_.AllocateZeroed<uint64_t>(U * frag_words_);
  read_bundle_bits_ = arena_.AllocateZeroed<uint64_t>(R * frag_words_);
  update_bundle_bits_ = arena_.AllocateZeroed<uint64_t>(U * frag_words_);
  read_over_weight_ = arena_.AllocateZeroed<double>(R);
  upd_over_weight_ = arena_.AllocateZeroed<double>(U);
  read_bundle_bytes_ = arena_.AllocateZeroed<double>(R);
  upd_bundle_bytes_ = arena_.AllocateZeroed<double>(U);

  auto set_bits = [](uint64_t* row, const FragmentSet& set) {
    for (FragmentId f : set) row[f >> 6] |= uint64_t{1} << (f & 63);
  };
  for (size_t r = 0; r < R; ++r) {
    set_bits(read_bits_ + r * frag_words_, cls.reads[r].fragments);
  }
  for (size_t u = 0; u < U; ++u) {
    set_bits(update_bits_ + u * frag_words_, cls.updates[u].fragments);
  }

  // Fragment inverted index (CSR, classes ascending per fragment): count
  // pass, exclusive prefix sum, fill pass with a cursor copy.
  auto build_frag_csr = [&](const std::vector<QueryClass>& classes,
                            size_t** off_out, size_t** data_out) {
    size_t* off = arena_.AllocateZeroed<size_t>(F + 1);
    for (const QueryClass& c : classes) {
      for (FragmentId f : c.fragments) ++off[f + 1];
    }
    for (size_t f = 0; f < F; ++f) off[f + 1] += off[f];
    size_t* data = arena_.AllocateArray<size_t>(off[F]);
    std::vector<size_t> cursor(off, off + F);
    for (size_t c = 0; c < classes.size(); ++c) {
      for (FragmentId f : classes[c].fragments) data[cursor[f]++] = c;
    }
    *off_out = off;
    *data_out = data;
  };
  build_frag_csr(cls.reads, &frag_reads_off_, &frag_reads_);
  // The update-class side serves only the overlap gathering and the
  // components below.
  size_t* frag_updates_off = nullptr;
  size_t* frag_updates = nullptr;
  build_frag_csr(cls.updates, &frag_updates_off, &frag_updates);

  // updates(C) lists, weights, and bundles, gathered through the inverted
  // index (cost ∝ overlaps that exist, not |C|·|CU|). The candidate set per
  // class is deduplicated with a stamp array and sorted ascending, so the
  // weight sum runs in the same ascending-u order — and the bundle byte sum
  // in the same ascending-fragment order — as the unindexed
  // Classification::FragmentsWithUpdates + FragmentCatalog::SetBytes paths;
  // the memoized values are bitwise identical to them.
  std::vector<size_t> stamp(U, kNoStamp);
  std::vector<size_t> scratch;
  std::vector<size_t> all_over;    // CSR data under construction.
  std::vector<size_t> over_off(1, 0);
  auto gather_overlaps = [&](size_t stamp_key, const FragmentSet& frags) {
    scratch.clear();
    for (FragmentId f : frags) {
      for (size_t i = frag_updates_off[f]; i < frag_updates_off[f + 1];
           ++i) {
        const size_t u = frag_updates[i];
        if (stamp[u] != stamp_key) {
          stamp[u] = stamp_key;
          scratch.push_back(u);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
  };
  auto fill_class = [&](size_t stamp_key, const QueryClass& c, uint64_t* bits,
                        uint64_t* bundle, double* weight_out,
                        double* bytes_out) {
    gather_overlaps(stamp_key, c.fragments);
    double weight = 0.0;
    std::memcpy(bundle, bits, frag_words_ * sizeof(uint64_t));
    for (size_t u : scratch) {
      weight += cls.updates[u].weight;
      simd::OrInto(bundle, update_bits_ + u * frag_words_, frag_words_);
      all_over.push_back(u);
    }
    over_off.push_back(all_over.size());
    *weight_out = weight;
    double bytes = 0.0;
    ConstBitSpan(bundle, frag_words_, F).ForEachSetBit([&](size_t f) {
      bytes += cls.catalog.Get(static_cast<FragmentId>(f)).size_bytes;
    });
    *bytes_out = bytes;
  };
  for (size_t r = 0; r < R; ++r) {
    fill_class(r, cls.reads[r], read_bits_ + r * frag_words_,
               read_bundle_bits_ + r * frag_words_, &read_over_weight_[r],
               &read_bundle_bytes_[r]);
  }
  read_over_upd_off_ = arena_.AllocateArray<size_t>(R + 1);
  std::copy(over_off.begin(), over_off.end(), read_over_upd_off_);
  read_over_upd_ = arena_.AllocateArray<size_t>(all_over.size());
  std::copy(all_over.begin(), all_over.end(), read_over_upd_);

  all_over.clear();
  over_off.assign(1, 0);
  for (size_t u = 0; u < U; ++u) {
    // Distinct stamp keys for the update pass (R + u never collides with a
    // read index).
    fill_class(R + u, cls.updates[u], update_bits_ + u * frag_words_,
               update_bundle_bits_ + u * frag_words_, &upd_over_weight_[u],
               &upd_bundle_bytes_[u]);
  }
  upd_over_upd_off_ = arena_.AllocateArray<size_t>(U + 1);
  std::copy(over_off.begin(), over_off.end(), upd_over_upd_off_);
  upd_over_upd_ = arena_.AllocateArray<size_t>(all_over.size());
  std::copy(all_over.begin(), all_over.end(), upd_over_upd_);

  // reads_overlapping_update is the exact transpose of
  // read_overlapping_updates; filling in ascending r keeps each list sorted.
  upd_over_reads_off_ = arena_.AllocateZeroed<size_t>(U + 1);
  for (size_t i = 0; i < read_over_upd_off_[R]; ++i) {
    ++upd_over_reads_off_[read_over_upd_[i] + 1];
  }
  for (size_t u = 0; u < U; ++u) {
    upd_over_reads_off_[u + 1] += upd_over_reads_off_[u];
  }
  upd_over_reads_ = arena_.AllocateArray<size_t>(read_over_upd_off_[R]);
  {
    std::vector<size_t> cursor(upd_over_reads_off_, upd_over_reads_off_ + U);
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = read_over_upd_off_[r]; i < read_over_upd_off_[r + 1];
           ++i) {
        upd_over_reads_[cursor[read_over_upd_[i]]++] = r;
      }
    }
  }

  // Per-read transitive closures. Two update classes chain iff they share a
  // fragment, so reachability is membership in a connected component of the
  // update-overlap graph: union the updates listed under each fragment,
  // materialize one update-id bitset and one fragment bitset per component,
  // and each read's closure is the OR of the components its updates(C) seeds
  // touch. Unions are order-independent, so the closures are bit-identical
  // to the former per-read breadth-first search.
  std::vector<size_t> parent(U);
  std::iota(parent.begin(), parent.end(), size_t{0});
  for (size_t f = 0; f < F; ++f) {
    const size_t begin = frag_updates_off[f];
    const size_t end = frag_updates_off[f + 1];
    if (end - begin < 2) continue;
    const size_t root = FindRoot(&parent, frag_updates[begin]);
    for (size_t i = begin + 1; i < end; ++i) {
      parent[FindRoot(&parent, frag_updates[i])] = root;
    }
  }
  // Dense component ids.
  std::vector<size_t> comp_of(U);
  size_t num_comps = 0;
  {
    std::vector<size_t> comp_id(U, kNoStamp);
    for (size_t u = 0; u < U; ++u) {
      const size_t root = FindRoot(&parent, u);
      if (comp_id[root] == kNoStamp) comp_id[root] = num_comps++;
      comp_of[u] = comp_id[root];
    }
  }
  num_components_ = num_comps;
  comp_upd_ = arena_.AllocateZeroed<uint64_t>(num_comps * upd_words_);
  comp_frag_ = arena_.AllocateZeroed<uint64_t>(num_comps * frag_words_);
  // Set-bit counts of each component's rows.
  size_t* comp_frag_count = arena_.AllocateArray<size_t>(num_comps);
  size_t* comp_upd_count = arena_.AllocateZeroed<size_t>(num_comps);
  for (size_t u = 0; u < U; ++u) {
    const size_t c = comp_of[u];
    comp_upd_[c * upd_words_ + (u >> 6)] |= uint64_t{1} << (u & 63);
    simd::OrInto(comp_frag_ + c * frag_words_,
                 update_bits_ + u * frag_words_, frag_words_);
    ++comp_upd_count[c];
  }
  for (size_t c = 0; c < num_comps; ++c) {
    comp_frag_count[c] = simd::PopcountWords(comp_frag_ + c * frag_words_,
                                             frag_words_);
  }
  // CSR of the distinct components each read touches (stamp-deduplicated,
  // first-touch order of the ascending updates(C) list). The closures below
  // and the hot collectors both walk this list, so a component shared by
  // several of a read's seed updates is OR'd exactly once.
  read_comp_off_ = arena_.AllocateZeroed<size_t>(R + 1);
  size_t frag_id_bound = 0;
  size_t upd_id_count = 0;
  {
    std::vector<size_t> seen(num_comps, kNoStamp);
    for (size_t r = 0; r < R; ++r) {
      frag_id_bound += cls.reads[r].fragments.size();
      for (size_t i = read_over_upd_off_[r]; i < read_over_upd_off_[r + 1];
           ++i) {
        const size_t c = comp_of[read_over_upd_[i]];
        if (seen[c] != r) {
          seen[c] = r;
          ++read_comp_off_[r + 1];
          frag_id_bound += comp_frag_count[c];
          upd_id_count += comp_upd_count[c];
        }
      }
    }
    for (size_t r = 0; r < R; ++r) read_comp_off_[r + 1] += read_comp_off_[r];
    read_comp_ = arena_.AllocateArray<uint32_t>(read_comp_off_[R]);
    std::fill(seen.begin(), seen.end(), kNoStamp);
    size_t cursor = 0;
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = read_over_upd_off_[r]; i < read_over_upd_off_[r + 1];
           ++i) {
        const size_t c = comp_of[read_over_upd_[i]];
        if (seen[c] != r) {
          seen[c] = r;
          read_comp_[cursor++] = static_cast<uint32_t>(c);
        }
      }
    }
  }
  // Closure id lists, ascending. Each closure is built in one reused pair
  // of scratch rows and emitted as ids, so the index holds no R-row dense
  // closure pool. The components partition the update classes and, since a
  // fragment's update classes share one component, their fragment sets
  // too: a closure holds exactly the sum of its components' update counts
  // and at most its own fragments plus its components' fragment counts, so
  // both id arrays are carved before the first closure is built.
  closure_frag_ids_off_ = arena_.AllocateArray<size_t>(R + 1);
  closure_upd_ids_off_ = arena_.AllocateArray<size_t>(R + 1);
  closure_frag_ids_ = arena_.AllocateArray<uint32_t>(frag_id_bound);
  closure_upd_ids_ = arena_.AllocateArray<uint32_t>(upd_id_count);
  uint64_t* frag_row = arena_.AllocateArray<uint64_t>(frag_words_);
  uint64_t* upd_row = arena_.AllocateArray<uint64_t>(upd_words_);
  size_t fcur = 0;
  size_t ucur = 0;
  closure_frag_ids_off_[0] = 0;
  closure_upd_ids_off_[0] = 0;
  for (size_t r = 0; r < R; ++r) {
    std::memcpy(frag_row, read_bits_ + r * frag_words_,
                frag_words_ * sizeof(uint64_t));
    std::fill(upd_row, upd_row + upd_words_, uint64_t{0});
    for (size_t i = read_comp_off_[r]; i < read_comp_off_[r + 1]; ++i) {
      const size_t c = read_comp_[i];
      simd::OrInto(upd_row, comp_upd_ + c * upd_words_, upd_words_);
      simd::OrInto(frag_row, comp_frag_ + c * frag_words_, frag_words_);
    }
    ConstBitSpan(frag_row, frag_words_, F).ForEachSetBit(
        [&](size_t f) { closure_frag_ids_[fcur++] = static_cast<uint32_t>(f); });
    ConstBitSpan(upd_row, upd_words_, U).ForEachSetBit(
        [&](size_t u) { closure_upd_ids_[ucur++] = static_cast<uint32_t>(u); });
    closure_frag_ids_off_[r + 1] = fcur;
    closure_upd_ids_off_[r + 1] = ucur;
  }
}

}  // namespace qcap

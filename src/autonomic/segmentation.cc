#include "autonomic/segmentation.h"

#include <algorithm>
#include <cmath>

#include "physical/scaling.h"

namespace qcap {

Result<std::vector<std::vector<double>>> WindowMixes(
    const QueryJournal& journal, double window_seconds) {
  double begin = 0.0, end = 0.0;
  if (!journal.TimeRange(&begin, &end)) {
    return Status::InvalidArgument("journal has no timestamped records");
  }
  std::vector<std::vector<double>> mixes;
  for (double t = begin; t < end; t += window_seconds) {
    const QueryJournal slice = journal.Slice(t, t + window_seconds);
    std::vector<double> mix(journal.NumDistinct(), 0.0);
    if (!slice.empty()) {
      // Map slice queries back to the full journal's query indices by text.
      double total = 0.0;
      for (size_t i = 0; i < slice.queries().size(); ++i) {
        total += static_cast<double>(slice.count(i));
      }
      for (size_t i = 0; i < slice.queries().size(); ++i) {
        for (size_t j = 0; j < journal.queries().size(); ++j) {
          if (journal.queries()[j].text == slice.queries()[i].text) {
            mix[j] = static_cast<double>(slice.count(i)) / total;
            break;
          }
        }
      }
    }
    mixes.push_back(std::move(mix));
  }
  return mixes;
}

Result<std::vector<Segment>> SegmentJournal(const QueryJournal& journal) {
  double begin = 0.0, end = 0.0;
  if (!journal.TimeRange(&begin, &end)) {
    return Status::InvalidArgument("journal has no timestamped records");
  }
  QCAP_ASSIGN_OR_RETURN(std::vector<std::vector<double>> mixes,
                        WindowMixes(journal, kSegmentWindowSeconds));
  std::vector<Segment> segments;
  Segment current{begin, begin + kSegmentWindowSeconds};
  for (size_t w = 1; w < mixes.size(); ++w) {
    double distance = 0.0;
    for (size_t q = 0; q < mixes[w].size(); ++q) {
      distance += std::abs(mixes[w][q] - mixes[w - 1][q]);
    }
    const double window_begin =
        begin + static_cast<double>(w) * kSegmentWindowSeconds;
    if (distance > kSegmentMixThreshold) {
      current.end_seconds = window_begin;
      segments.push_back(current);
      current = Segment{window_begin, window_begin + kSegmentWindowSeconds};
    } else {
      current.end_seconds = window_begin + kSegmentWindowSeconds;
    }
  }
  current.end_seconds = std::max(current.end_seconds, end + 1.0);
  segments.push_back(current);
  return segments;
}

Result<Allocation> PlacementForClassification(const Allocation& placement,
                                              const Classification& cls) {
  Allocation out(placement.num_backends(), cls.catalog.size(),
                 cls.reads.size(), cls.updates.size());
  if (placement.num_fragments() != cls.catalog.size()) {
    return Status::InvalidArgument(
        "placement fragment count does not match classification");
  }
  alloc_internal::UpdateCloser closer(cls);
  for (size_t b = 0; b < placement.num_backends(); ++b) {
    closer.PlaceAndClose(b, placement.RowBits(b), &out);
  }
  closer.PlaceOrphans(&out, nullptr);
  // Spread each read class evenly across its capable backends.
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    std::vector<size_t> capable;
    for (size_t b = 0; b < out.num_backends(); ++b) {
      if (out.HoldsAll(b, cls.reads[r].fragments)) capable.push_back(b);
    }
    if (capable.empty()) {
      return Status::InvalidArgument("read class " + cls.reads[r].label +
                                     " not servable by merged placement");
    }
    const double share =
        cls.reads[r].weight / static_cast<double>(capable.size());
    for (size_t b : capable) out.set_read_assign(b, r, share);
  }
  return out;
}

Result<Allocation> SegmentedAllocation(
    const QueryJournal& journal, const std::vector<Segment>& segments,
    const engine::Catalog& catalog, const ClassifierOptions& options,
    Allocator* allocator, const std::vector<BackendSpec>& backends) {
  if (allocator == nullptr) {
    return Status::InvalidArgument("allocator must not be null");
  }
  if (segments.empty()) {
    return Status::InvalidArgument("no segments");
  }
  Classifier classifier(catalog, options);
  std::vector<Allocation> per_segment;
  const FragmentCatalog* fragment_catalog = nullptr;
  std::vector<Classification> classifications;
  for (const Segment& seg : segments) {
    const QueryJournal slice =
        journal.Slice(seg.begin_seconds, seg.end_seconds);
    if (slice.empty()) continue;
    QCAP_ASSIGN_OR_RETURN(Classification cls, classifier.Classify(slice));
    QCAP_ASSIGN_OR_RETURN(Allocation alloc,
                          allocator->Allocate(cls, backends));
    classifications.push_back(std::move(cls));
    per_segment.push_back(std::move(alloc));
    fragment_catalog = &classifications.back().catalog;
  }
  if (per_segment.empty()) {
    return Status::InvalidArgument("all segments were empty");
  }
  return MergeAllocations(per_segment, *fragment_catalog);
}

}  // namespace qcap

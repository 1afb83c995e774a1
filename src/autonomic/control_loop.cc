#include "autonomic/control_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autonomic/segmentation.h"
#include "model/validation.h"
#include "physical/scaling.h"

namespace qcap {
namespace {

/// Weight floor applied when a mix is turned into a classification: every
/// class stays allocatable and servable even if a bucket observed none of
/// its queries.
constexpr double kMixFloor = 1e-4;

/// Seed perturbation for the post-swap part of a split bucket.
constexpr uint64_t kSwapSeedSalt = 0x9e3779b97f4a7c15ULL;

/// L1 boundary between a bucket's observed mix and its running segment's
/// average that starts a new segment when re-segmenting the mix history.
constexpr double kSegmentSplitThreshold = 0.3;

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

std::vector<double> MeanMix(const std::vector<std::vector<double>>& mixes,
                            size_t begin, size_t end) {
  std::vector<double> mean(mixes[begin].size(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    for (size_t c = 0; c < mean.size(); ++c) mean[c] += mixes[i][c];
  }
  const double inv = 1.0 / static_cast<double>(end - begin);
  for (double& v : mean) v *= inv;
  return mean;
}

}  // namespace

const char* ToString(AdaptiveAction action) {
  switch (action) {
    case AdaptiveAction::kNone:
      return "none";
    case AdaptiveAction::kReallocate:
      return "reallocate";
    case AdaptiveAction::kResegment:
      return "resegment";
    case AdaptiveAction::kScaleOut:
      return "scale-out";
    case AdaptiveAction::kScaleIn:
      return "scale-in";
    case AdaptiveAction::kSelfHeal:
      return "self-heal";
  }
  return "unknown";
}

AdaptiveController::AdaptiveController(const Classification& base,
                                       Allocator* allocator,
                                       AdaptiveOptions options)
    : base_(base), allocator_(allocator), options_(std::move(options)),
      physical_(options_.etl) {}

Status AdaptiveController::Install(size_t nodes) {
  if (allocator_ == nullptr) {
    return Status::InvalidArgument("allocator must not be null");
  }
  if (nodes == 0) return Status::InvalidArgument("nodes must be > 0");
  QCAP_ASSIGN_OR_RETURN(
      alloc_, allocator_->Allocate(base_, HomogeneousBackends(nodes)));
  nodes_ = nodes;
  alive_.assign(nodes_, true);
  degrade_.assign(nodes_, 1.0);
  std::vector<double> mix;
  mix.reserve(base_.NumClasses());
  for (const QueryClass& c : base_.reads) mix.push_back(c.weight);
  for (const QueryClass& c : base_.updates) mix.push_back(c.weight);
  serving_mixes_.assign(1, std::move(mix));
  window_.clear();
  history_.clear();
  transitions_.clear();
  drift_reallocs_ = 0;
  cooldown_ = 0;
  pending_after_ = static_cast<size_t>(-1);
  bucket_index_ = 0;
  return Status::OK();
}

Classification AdaptiveController::WithMix(
    const std::vector<double>& mix) const {
  Classification cls = base_;
  double total = 0.0;
  for (double v : mix) total += std::max(v, kMixFloor);
  const double inv = total > 0.0 ? 1.0 / total : 1.0;
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    cls.reads[r].weight = std::max(mix[r], kMixFloor) * inv;
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    cls.updates[u].weight =
        std::max(mix[cls.reads.size() + u], kMixFloor) * inv;
  }
  return cls;
}

std::vector<double> AdaptiveController::ObservedMix(
    const std::vector<uint64_t>& counts) const {
  std::vector<double> mix(base_.NumClasses(), 0.0);
  double total = 0.0;
  for (size_t r = 0; r < base_.reads.size(); ++r) {
    mix[r] = static_cast<double>(counts[r]) * base_.reads[r].mean_cost;
    total += mix[r];
  }
  for (size_t u = 0; u < base_.updates.size(); ++u) {
    const size_t c = base_.reads.size() + u;
    mix[c] = static_cast<double>(counts[c]) * base_.updates[u].mean_cost;
    total += mix[c];
  }
  if (total <= 0.0) return {};
  for (double& v : mix) v /= total;
  return mix;
}

std::vector<double> AdaptiveController::WindowMix() const {
  if (window_.empty()) return {};
  return MeanMix(window_, 0, window_.size());
}

double AdaptiveController::DriftOf(const std::vector<double>& mix) const {
  if (mix.empty() || serving_mixes_.empty()) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& serving : serving_mixes_) {
    best = std::min(best, L1(mix, serving));
  }
  return best;
}

Status AdaptiveController::RunSlice(const BucketDemand& demand, double w0,
                                    double w1,
                                    const std::vector<FaultEvent>& external,
                                    uint64_t seed, AdaptiveStep* step,
                                    std::vector<uint64_t>* counts,
                                    double* busy_seconds,
                                    double* capacity_seconds,
                                    double* response_sum) {
  const double scale = options_.slice_seconds / options_.bucket_seconds;
  const double duration = (w1 - w0) * scale;
  if (duration <= 0.0) return Status::OK();
  const auto rel = [&](double t) {
    return std::max(0.0, (t - w0) * scale);
  };

  // Candidate fault events: persistent state first (so they apply before
  // anything else at t = 0), then ETL interference, then this window's
  // external events. kind: 0 = persistent, 1 = interference, 2 = external.
  struct Candidate {
    FaultEvent event;
    int kind;
  };
  std::vector<Candidate> candidates;
  for (size_t b = 0; b < nodes_; ++b) {
    if (!alive_[b]) {
      candidates.push_back(
          {FaultEvent{FaultEvent::Kind::kCrash, 0.0, b, 1.0}, 0});
    } else if (degrade_[b] != 1.0) {
      candidates.push_back(
          {FaultEvent{FaultEvent::Kind::kDegrade, 0.0, b, degrade_[b]}, 0});
    }
  }
  for (const InterferenceWindow& w : migration_.InterferenceIn(w0, w1)) {
    if (w.backend >= nodes_) continue;
    const double sticky = degrade_[w.backend];
    candidates.push_back({FaultEvent{FaultEvent::Kind::kDegrade,
                                     rel(w.begin_seconds), w.backend,
                                     sticky * w.factor},
                          1});
    if (w.end_seconds < w1) {
      candidates.push_back({FaultEvent{FaultEvent::Kind::kDegrade,
                                       rel(w.end_seconds), w.backend, sticky},
                            1});
    }
  }
  for (const FaultEvent& e : external) {
    if (e.time_seconds < w0 || e.time_seconds >= w1) continue;
    if (e.backend >= nodes_) continue;
    FaultEvent mapped = e;
    mapped.time_seconds = rel(e.time_seconds);
    candidates.push_back({mapped, 2});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.event.time_seconds < b.event.time_seconds;
                   });

  // Replay-filter: keep only events valid in sequence (the simulator
  // validates its fault plan strictly), and fold kept *external* events
  // into the persistent liveness/degrade state for the next interval.
  FaultPlan plan;
  std::vector<bool> up(nodes_, true);
  for (const Candidate& c : candidates) {
    const size_t b = c.event.backend;
    switch (c.event.kind) {
      case FaultEvent::Kind::kCrash:
        if (!up[b]) continue;
        up[b] = false;
        if (c.kind == 2) alive_[b] = false;
        break;
      case FaultEvent::Kind::kRecover:
        if (up[b]) continue;
        up[b] = true;
        if (c.kind == 2) {
          alive_[b] = true;
          degrade_[b] = 1.0;  // A repaired replacement rejoins at speed.
        }
        break;
      case FaultEvent::Kind::kDegrade:
        if (!up[b]) continue;
        if (!(c.event.factor > 0.0) || !std::isfinite(c.event.factor)) {
          continue;
        }
        if (c.kind == 2) degrade_[b] = c.event.factor;
        break;
    }
    plan.events.push_back(c.event);
  }

  SimulationConfig config = options_.sim;
  config.seed = seed;
  config.fault_plan = std::move(plan);
  config.track_class_mix = true;

  // The offered mix this interval: base weights scaled by the diurnal
  // multipliers (renormalized by WithMix). Locals must outlive the
  // simulator — it holds references.
  std::vector<double> offered(base_.NumClasses(), 0.0);
  for (size_t r = 0; r < base_.reads.size(); ++r) {
    offered[r] = base_.reads[r].weight;
  }
  for (size_t u = 0; u < base_.updates.size(); ++u) {
    offered[base_.reads.size() + u] = base_.updates[u].weight;
  }
  if (!demand.class_weight_scale.empty()) {
    if (demand.class_weight_scale.size() != offered.size()) {
      return Status::InvalidArgument(
          "class_weight_scale size does not match the classification");
    }
    for (size_t c = 0; c < offered.size(); ++c) {
      offered[c] *= demand.class_weight_scale[c];
    }
  }
  // An idle interval serves nothing; its faults are folded in above.
  if (demand.offered_qps == 0.0) return Status::OK();
  const Classification slice_cls = WithMix(offered);
  const std::vector<BackendSpec> backends = HomogeneousBackends(nodes_);
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(slice_cls, alloc_, backends, config));
  QCAP_ASSIGN_OR_RETURN(SimStats stats,
                        sim.RunOpen(duration, demand.offered_qps));

  step->p99_ms = std::max(step->p99_ms, stats.p99_response_seconds * 1e3);
  step->completed += stats.completed_total();
  step->failed += stats.failed_requests;
  step->rejected += stats.rejected_requests;
  for (double busy : stats.backend_busy_seconds) *busy_seconds += busy;
  *capacity_seconds += duration *
                       static_cast<double>(options_.sim.servers_per_backend) *
                       static_cast<double>(nodes_);
  *response_sum += stats.avg_response_seconds *
                   static_cast<double>(stats.completed_total());
  for (size_t c = 0; c < stats.class_completions.size(); ++c) {
    (*counts)[c] += stats.class_completions[c];
  }
  return Status::OK();
}

void AdaptiveController::SwapNow() {
  const bool heals = !transitions_.empty() && !transitions_.back().aborted &&
                     transitions_.back().action == AdaptiveAction::kSelfHeal;
  alloc_ = migration_.TakeTarget();
  nodes_ = alloc_.num_backends();
  // Only a self-heal provisions replacement hardware for crashed nodes;
  // every other transition was planned around the survivors, so liveness
  // carries over by index (nodes added by a scale-out join alive). Sticky
  // degrades describe hardware, which no migration fixes.
  if (heals) {
    alive_.assign(nodes_, true);
  } else {
    alive_.resize(nodes_, true);
  }
  degrade_.resize(nodes_, 1.0);
  serving_mixes_ = std::move(staged_mixes_);
  staged_mixes_.clear();
  if (staged_resets_drift_) drift_reallocs_ = 0;
  staged_resets_drift_ = false;
  cooldown_ = options_.cooldown_buckets;
  if (!transitions_.empty()) {
    TransitionRecord& record = transitions_.back();
    if (!record.aborted) {
      record.completed = true;
      pending_after_ = transitions_.size() - 1;
    }
  }
}

Status AdaptiveController::BeginTransition(AdaptiveAction action,
                                           std::string cause,
                                           const std::vector<double>& mix,
                                           size_t target_nodes,
                                           double decided_seconds,
                                           double p99_before_ms) {
  const Classification target_cls = WithMix(mix);
  QCAP_ASSIGN_OR_RETURN(
      Allocation target,
      allocator_->Allocate(target_cls, HomogeneousBackends(target_nodes)));

  // Dead nodes donate nothing to the ETL: match against the survivors.
  Allocation survivors = alloc_;
  for (size_t b = 0; b < nodes_; ++b) {
    if (!alive_[b]) survivors.ClearBackendRow(b);
  }
  QCAP_ASSIGN_OR_RETURN(TransitionPlan plan,
                        physical_.Plan(survivors, target, base_.catalog));
  QCAP_RETURN_NOT_OK(migration_.Begin(std::move(target),
                                      HomogeneousBackends(target_nodes), plan,
                                      decided_seconds, options_.migration));
  staged_mixes_.assign(1, mix);
  staged_resets_drift_ = false;

  TransitionRecord record;
  record.action = action;
  record.cause = std::move(cause);
  record.decided_seconds = decided_seconds;
  record.swap_seconds = migration_.swap_seconds();
  record.moved_bytes = plan.total_bytes;
  record.etl_seconds = migration_.etl_seconds();
  record.nodes_before = nodes_;
  record.nodes_after = target_nodes;
  record.p99_before_ms = p99_before_ms;
  transitions_.push_back(std::move(record));
  return Status::OK();
}

Status AdaptiveController::BeginResegmentation(double decided_seconds,
                                               double p99_before_ms) {
  // Split the observed-mix history into segments of stable mix: a new
  // segment starts where the next bucket's mix departs from the running
  // segment average by more than the threshold (the journal-level
  // SegmentJournal logic, applied to the control loop's own observations).
  std::vector<std::pair<size_t, size_t>> segments;
  size_t begin = 0;
  for (size_t i = 1; i < history_.size(); ++i) {
    const std::vector<double> avg = MeanMix(history_, begin, i);
    if (L1(avg, history_[i]) > kSegmentSplitThreshold) {
      segments.emplace_back(begin, i);
      begin = i;
    }
  }
  segments.emplace_back(begin, history_.size());

  const std::vector<double> window_mix = WindowMix();
  if (segments.size() < 2) {
    // One stable segment: nothing to merge, fall back to a plain re-fit.
    ++drift_reallocs_;
    return BeginTransition(AdaptiveAction::kReallocate,
                           "drift (history has a single stable segment)",
                           window_mix, nodes_, decided_seconds, p99_before_ms);
  }

  std::vector<std::vector<double>> segment_mixes;
  std::vector<Allocation> per_segment;
  segment_mixes.reserve(segments.size());
  per_segment.reserve(segments.size());
  for (const auto& [seg_begin, seg_end] : segments) {
    segment_mixes.push_back(MeanMix(history_, seg_begin, seg_end));
    const Classification seg_cls = WithMix(segment_mixes.back());
    QCAP_ASSIGN_OR_RETURN(
        Allocation seg_alloc,
        allocator_->Allocate(seg_cls, HomogeneousBackends(nodes_)));
    per_segment.push_back(std::move(seg_alloc));
  }
  QCAP_ASSIGN_OR_RETURN(Allocation merged,
                        MergeAllocations(per_segment, base_.catalog));
  // Re-derive assignments of the merged placement for the current mix.
  const Classification window_cls = WithMix(window_mix);
  QCAP_ASSIGN_OR_RETURN(Allocation target,
                        PlacementForClassification(merged, window_cls));

  Allocation survivors = alloc_;
  for (size_t b = 0; b < nodes_; ++b) {
    if (!alive_[b]) survivors.ClearBackendRow(b);
  }
  QCAP_ASSIGN_OR_RETURN(TransitionPlan plan,
                        physical_.Plan(survivors, target, base_.catalog));
  QCAP_RETURN_NOT_OK(migration_.Begin(std::move(target),
                                      HomogeneousBackends(nodes_), plan,
                                      decided_seconds, options_.migration));
  staged_mixes_ = std::move(segment_mixes);
  staged_resets_drift_ = true;

  TransitionRecord record;
  record.action = AdaptiveAction::kResegment;
  record.cause = "repeated drift reallocations (" +
                 std::to_string(segments.size()) + " segments merged)";
  record.decided_seconds = decided_seconds;
  record.swap_seconds = migration_.swap_seconds();
  record.moved_bytes = plan.total_bytes;
  record.etl_seconds = migration_.etl_seconds();
  record.nodes_before = nodes_;
  record.nodes_after = nodes_;
  record.p99_before_ms = p99_before_ms;
  transitions_.push_back(std::move(record));
  return Status::OK();
}

Status AdaptiveController::Decide(double decided_seconds, AdaptiveStep* step) {
  const size_t dead =
      static_cast<size_t>(std::count(alive_.begin(), alive_.end(), false));
  step->dead_backends = dead;

  // Self-heal pre-empts everything, including an in-flight migration: a
  // crash that violates k-safety makes the planned target moot.
  if (dead > 0) {
    const Status safety =
        CheckKSafety(base_, alloc_, alive_, options_.k_safety);
    if (!safety.ok()) {
      // A self-heal already in flight IS the repair — let it finish,
      // unless liveness changed again since it was planned (another
      // crash): then its target is stale too and we re-plan.
      if (migration_.active() && !transitions_.empty() &&
          !transitions_.back().aborted &&
          transitions_.back().action == AdaptiveAction::kSelfHeal &&
          alive_ == heal_alive_snapshot_) {
        return Status::OK();
      }
      if (migration_.active()) {
        migration_.Abort();
        if (!transitions_.empty() && !transitions_.back().completed) {
          transitions_.back().aborted = true;
        }
        staged_mixes_.clear();
        staged_resets_drift_ = false;
      }
      step->decision = AdaptiveAction::kSelfHeal;
      heal_alive_snapshot_ = alive_;
      std::vector<double> mix = WindowMix();
      if (mix.empty()) mix = serving_mixes_.front();
      return BeginTransition(AdaptiveAction::kSelfHeal,
                             "k-safety violated: " + safety.message(), mix,
                             nodes_, decided_seconds, step->p99_ms);
    }
  }
  if (migration_.active()) return Status::OK();
  if (cooldown_ > 0) {
    --cooldown_;
    return Status::OK();
  }
  const std::vector<double> mix = WindowMix();
  if (mix.empty()) return Status::OK();

  const bool slo_violated = step->p99_ms > options_.slo_p99_ms;
  if (slo_violated && step->utilization > options_.scale_up_utilization &&
      nodes_ < options_.max_nodes) {
    step->decision = AdaptiveAction::kScaleOut;
    return BeginTransition(AdaptiveAction::kScaleOut,
                           "SLO violated under high utilization", mix,
                           nodes_ + 1, decided_seconds, step->p99_ms);
  }
  if (dead == 0 && nodes_ > options_.min_nodes &&
      step->utilization < options_.scale_down_utilization &&
      step->p99_ms <
          options_.slo_p99_ms * options_.scale_down_headroom) {
    step->decision = AdaptiveAction::kScaleIn;
    return BeginTransition(AdaptiveAction::kScaleIn,
                           "idle cluster well inside the SLO", mix,
                           nodes_ - 1, decided_seconds, step->p99_ms);
  }
  if (step->drift > options_.drift_threshold) {
    if (drift_reallocs_ >= options_.resegment_after && history_.size() >= 2) {
      step->decision = AdaptiveAction::kResegment;
      return BeginResegmentation(decided_seconds, step->p99_ms);
    }
    ++drift_reallocs_;
    step->decision = AdaptiveAction::kReallocate;
    return BeginTransition(AdaptiveAction::kReallocate,
                           "observed mix drifted off every serving mix", mix,
                           nodes_, decided_seconds, step->p99_ms);
  }
  return Status::OK();
}

Result<AdaptiveStep> AdaptiveController::Step(
    const BucketDemand& demand, const std::vector<FaultEvent>& faults) {
  if (nodes_ == 0) {
    return Status::InvalidArgument("Install() must run before Step()");
  }
  if (!std::isfinite(demand.offered_qps) || demand.offered_qps < 0.0) {
    return Status::InvalidArgument("offered_qps must be finite and >= 0");
  }
  for (double scale : demand.class_weight_scale) {
    if (!std::isfinite(scale) || scale < 0.0) {
      return Status::InvalidArgument(
          "class_weight_scale entries must be finite and >= 0");
    }
  }
  const double bucket_begin = demand.tod_seconds;
  const double bucket_end = bucket_begin + options_.bucket_seconds;
  const double epsilon = 1e-9 * options_.bucket_seconds;

  AdaptiveStep step;
  step.tod_seconds = bucket_begin;
  step.offered_qps = demand.offered_qps;
  const bool had_active = migration_.active();
  step.phase = migration_.PhaseAt(bucket_begin);

  std::vector<uint64_t> counts(base_.NumClasses(), 0);
  double busy = 0.0;
  double capacity = 0.0;
  double response_sum = 0.0;
  const uint64_t seed =
      options_.sim.seed ^ static_cast<uint64_t>(bucket_begin);

  if (had_active && migration_.swap_seconds() <= bucket_begin + epsilon) {
    // Caught up at (or before) the interval boundary: swap first.
    SwapNow();
    step.swapped = true;
    QCAP_RETURN_NOT_OK(RunSlice(demand, bucket_begin, bucket_end, faults,
                                seed, &step, &counts, &busy, &capacity,
                                &response_sum));
  } else if (had_active && migration_.swap_seconds() < bucket_end) {
    // The atomic cut-over lands inside this interval: simulate the part
    // before it on the old layout (under ETL interference), swap, then
    // simulate the remainder on the new one.
    const double swap_at = migration_.swap_seconds();
    QCAP_RETURN_NOT_OK(RunSlice(demand, bucket_begin, swap_at, faults, seed,
                                &step, &counts, &busy, &capacity,
                                &response_sum));
    SwapNow();
    step.swapped = true;
    QCAP_RETURN_NOT_OK(RunSlice(demand, swap_at, bucket_end, faults,
                                seed ^ kSwapSeedSalt, &step, &counts, &busy,
                                &capacity, &response_sum));
  } else {
    QCAP_RETURN_NOT_OK(RunSlice(demand, bucket_begin, bucket_end, faults,
                                seed, &step, &counts, &busy, &capacity,
                                &response_sum));
  }

  step.nodes = nodes_;
  step.avg_ms = step.completed > 0
                    ? response_sum / static_cast<double>(step.completed) * 1e3
                    : 0.0;
  const uint64_t offered = step.completed + step.failed + step.rejected;
  step.availability =
      offered > 0
          ? static_cast<double>(step.completed) / static_cast<double>(offered)
          : 1.0;
  step.utilization = capacity > 0.0 ? busy / capacity : 0.0;

  const std::vector<double> observed = ObservedMix(counts);
  if (!observed.empty()) {
    window_.push_back(observed);
    if (window_.size() > options_.window_buckets) {
      window_.erase(window_.begin());
    }
    history_.push_back(observed);
  }
  step.drift = DriftOf(WindowMix());

  // This interval ran (at least partly) under an active transition:
  // account it into the record's "during" metrics.
  if ((had_active || step.swapped) && !transitions_.empty()) {
    TransitionRecord& record = transitions_.back();
    if (!record.aborted) {
      record.p99_during_ms = std::max(record.p99_during_ms, step.p99_ms);
      record.availability_during =
          std::min(record.availability_during, step.availability);
    }
  }
  // First full post-swap interval: close out the pending record.
  if (pending_after_ != static_cast<size_t>(-1) && !step.swapped) {
    transitions_[pending_after_].p99_after_ms = step.p99_ms;
    pending_after_ = static_cast<size_t>(-1);
  }

  QCAP_RETURN_NOT_OK(Decide(bucket_end, &step));
  ++bucket_index_;
  return step;
}

Result<AdaptiveReport> AdaptiveController::ReplayDay(
    const std::vector<BucketDemand>& day, const FaultPlan& day_faults) {
  if (day.empty()) return Status::InvalidArgument("day must not be empty");
  const std::vector<FaultEvent> sorted = day_faults.Sorted();

  AdaptiveReport report;
  report.steps.reserve(day.size());
  uint64_t completed = 0;
  uint64_t offered = 0;
  size_t met = 0;
  for (const BucketDemand& demand : day) {
    std::vector<FaultEvent> external;
    for (const FaultEvent& e : sorted) {
      if (e.time_seconds >= demand.tod_seconds &&
          e.time_seconds < demand.tod_seconds + options_.bucket_seconds) {
        external.push_back(e);
      }
    }
    QCAP_ASSIGN_OR_RETURN(AdaptiveStep step, Step(demand, external));
    completed += step.completed;
    offered += step.completed + step.failed + step.rejected;
    if (step.p99_ms <= options_.slo_p99_ms) ++met;
    report.worst_p99_ms = std::max(report.worst_p99_ms, step.p99_ms);
    report.node_seconds +=
        static_cast<double>(step.nodes) * options_.bucket_seconds;
    report.steps.push_back(std::move(step));
  }
  report.transitions = transitions_;
  report.slo_attainment =
      static_cast<double>(met) / static_cast<double>(day.size());
  report.availability =
      offered > 0
          ? static_cast<double>(completed) / static_cast<double>(offered)
          : 1.0;
  for (const TransitionRecord& record : report.transitions) {
    if (!record.completed) continue;
    switch (record.action) {
      case AdaptiveAction::kReallocate:
        ++report.reallocations;
        break;
      case AdaptiveAction::kResegment:
        ++report.resegmentations;
        break;
      case AdaptiveAction::kScaleOut:
        ++report.scale_outs;
        break;
      case AdaptiveAction::kScaleIn:
        ++report.scale_ins;
        break;
      case AdaptiveAction::kSelfHeal:
        ++report.self_heals;
        break;
      case AdaptiveAction::kNone:
        break;
    }
  }
  return report;
}

}  // namespace qcap

// Deterministic failure/recovery schedules for the cluster simulator.
//
// A timed plan of crash, recover, and degrade (straggler) events, usable in
// both open- and closed-loop runs. Plans are validated strictly before a
// run starts, and their effect on a simulation is bit-deterministic for a
// fixed seed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace qcap {

/// One scheduled fault event.
struct FaultEvent {
  enum class Kind {
    /// The backend stops: queued work is re-dispatched (or becomes replica
    /// lag for updates), in-flight work times out, the scheduler routes
    /// around the node.
    kCrash,
    /// The backend (or its repaired replacement) rejoins with its fragment
    /// set intact and first drains the replica lag accumulated while down.
    kRecover,
    /// Straggler: the backend keeps serving, but every task *started* from
    /// this moment on takes `factor` times its nominal service time.
    /// factor = 1 restores full speed.
    kDegrade,
  };

  Kind kind = Kind::kCrash;
  double time_seconds = 0.0;
  size_t backend = 0;
  /// kDegrade only: service-time multiplier (> 0; usually >= 1).
  double factor = 1.0;
};

/// \brief A deterministic schedule of crash / recover / degrade events.
///
/// Events at equal times apply in insertion order. A plan must be
/// *consistent*: a backend can only crash while up, recover while down,
/// and degrade while up (see Validate()).
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Fluent builders, e.g. plan.Crash(10, 0).Recover(25, 0).
  FaultPlan& Crash(double time_seconds, size_t backend);
  FaultPlan& Recover(double time_seconds, size_t backend);
  FaultPlan& Degrade(double time_seconds, size_t backend, double factor);

  /// Events ordered by (time, insertion order) — the processing order.
  std::vector<FaultEvent> Sorted() const;

  /// Strict validation against a cluster of \p num_backends nodes:
  ///  - every time must be finite and >= 0;
  ///  - every backend index must be < num_backends;
  ///  - every degrade factor must be finite and > 0;
  ///  - replayed in order: no crash of an already-dead backend, no recover
  ///    of a backend that is not down (including recover-before-crash),
  ///    no degrade of a dead backend.
  Status Validate(size_t num_backends) const;

  /// Round-trippable spec string, e.g. "crash:10:0,recover:25:0".
  std::string ToString() const;
};

/// Parses a plan spec of ','- or ';'-separated events:
///   crash:<time>:<backend>
///   recover:<time>:<backend>
///   degrade:<time>:<backend>:<factor>
/// e.g. "degrade:5:2:3,crash:10:0,recover:25:0". Whitespace around events
/// is ignored; backend indices are 0-based. Each number must be a whole
/// decimal token (ParseUint / ParseFiniteDouble in common/strings.h):
/// <backend> is an unsigned integer with no sign; <time> and <factor> are
/// finite doubles, so "inf", "nan" and "2x" are InvalidArgument here.
/// Parsing does not apply the range and cluster-size checks — call
/// Validate() once the cluster size is known.
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

}  // namespace qcap

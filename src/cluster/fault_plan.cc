#include "cluster/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/strings.h"

namespace qcap {

namespace {

const char* KindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kRecover:
      return "recover";
    case FaultEvent::Kind::kDegrade:
      return "degrade";
  }
  return "?";
}

}  // namespace

FaultPlan& FaultPlan::Crash(double time_seconds, size_t backend) {
  events.push_back({FaultEvent::Kind::kCrash, time_seconds, backend, 1.0});
  return *this;
}

FaultPlan& FaultPlan::Recover(double time_seconds, size_t backend) {
  events.push_back({FaultEvent::Kind::kRecover, time_seconds, backend, 1.0});
  return *this;
}

FaultPlan& FaultPlan::Degrade(double time_seconds, size_t backend,
                              double factor) {
  events.push_back({FaultEvent::Kind::kDegrade, time_seconds, backend, factor});
  return *this;
}

std::vector<FaultEvent> FaultPlan::Sorted() const {
  std::vector<size_t> order(events.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return events[a].time_seconds < events[b].time_seconds;
  });
  std::vector<FaultEvent> sorted;
  sorted.reserve(events.size());
  for (size_t i : order) sorted.push_back(events[i]);
  return sorted;
}

Status FaultPlan::Validate(size_t num_backends) const {
  for (const FaultEvent& ev : events) {
    if (!std::isfinite(ev.time_seconds) || ev.time_seconds < 0.0) {
      return Status::InvalidArgument(
          std::string(KindName(ev.kind)) + " event time " +
          std::to_string(ev.time_seconds) + " must be finite and >= 0");
    }
    if (ev.backend >= num_backends) {
      return Status::InvalidArgument(
          std::string(KindName(ev.kind)) + " event backend " +
          std::to_string(ev.backend) + " out of range (cluster has " +
          std::to_string(num_backends) + " backends)");
    }
    if (ev.kind == FaultEvent::Kind::kDegrade &&
        (!std::isfinite(ev.factor) || ev.factor <= 0.0)) {
      return Status::InvalidArgument("degrade factor " +
                                     std::to_string(ev.factor) +
                                     " must be finite and > 0");
    }
  }
  // Replay: events must be consistent with the backend's up/down state at
  // the moment they apply.
  std::vector<bool> down(num_backends, false);
  for (const FaultEvent& ev : Sorted()) {
    const std::string at = " at t=" + std::to_string(ev.time_seconds);
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        if (down[ev.backend]) {
          return Status::InvalidArgument(
              "duplicate crash of dead backend " + std::to_string(ev.backend) +
              at);
        }
        down[ev.backend] = true;
        break;
      case FaultEvent::Kind::kRecover:
        if (!down[ev.backend]) {
          return Status::InvalidArgument(
              "recover of backend " + std::to_string(ev.backend) + at +
              " which is not down (recover before crash?)");
        }
        down[ev.backend] = false;
        break;
      case FaultEvent::Kind::kDegrade:
        if (down[ev.backend]) {
          return Status::InvalidArgument("degrade of crashed backend " +
                                         std::to_string(ev.backend) + at);
        }
        break;
    }
  }
  return Status::OK();
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += ',';
    out += KindName(ev.kind);
    out += ':' + FormatDouble(ev.time_seconds, 6) + ':' +
           std::to_string(ev.backend);
    if (ev.kind == FaultEvent::Kind::kDegrade) {
      out += ':' + FormatDouble(ev.factor, 6);
    }
  }
  return out;
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find_first_of(",;", pos);
    if (end == std::string::npos) end = spec.size();
    std::string token = Trim(spec.substr(pos, end - pos));
    pos = end + 1;
    if (token.empty()) {
      if (end == spec.size()) break;
      continue;
    }
    std::vector<std::string> parts = Split(token, ':');
    if (parts.size() < 3) {
      return Status::InvalidArgument("fault event '" + token +
                                     "' needs kind:time:backend");
    }
    FaultEvent ev;
    const std::string& kind = parts[0];
    if (kind == "crash") {
      ev.kind = FaultEvent::Kind::kCrash;
    } else if (kind == "recover") {
      ev.kind = FaultEvent::Kind::kRecover;
    } else if (kind == "degrade") {
      ev.kind = FaultEvent::Kind::kDegrade;
    } else {
      return Status::InvalidArgument("unknown fault kind '" + kind +
                                     "' (want crash|recover|degrade)");
    }
    if ((ev.kind == FaultEvent::Kind::kDegrade && parts.size() != 4) ||
        (ev.kind != FaultEvent::Kind::kDegrade && parts.size() != 3)) {
      return Status::InvalidArgument("fault event '" + token +
                                     "' has the wrong number of fields");
    }
    const std::optional<double> time = ParseFiniteDouble(parts[1]);
    const std::optional<uint64_t> backend = ParseUint(parts[2]);
    const std::optional<double> factor =
        ev.kind == FaultEvent::Kind::kDegrade ? ParseFiniteDouble(parts[3])
                                              : ev.factor;
    if (!time || !backend || !factor) {
      return Status::InvalidArgument("malformed number in fault event '" +
                                     token + "'");
    }
    ev.time_seconds = *time;
    ev.backend = static_cast<size_t>(*backend);
    ev.factor = *factor;
    plan.events.push_back(ev);
  }
  return plan;
}

}  // namespace qcap

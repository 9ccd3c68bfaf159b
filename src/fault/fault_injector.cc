#include "src/fault/fault_injector.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/common/logging.h"

namespace rhythm {

FaultInjector::FaultInjector(Simulator* sim, const FaultSchedule& schedule, int pod_count,
                             uint64_t seed)
    : sim_(sim),
      events_(schedule.Sorted()),
      rng_(seed),
      offline_depth_(static_cast<size_t>(pod_count), 0),
      blackout_depth_(static_cast<size_t>(pod_count), 0),
      frozen_depth_(static_cast<size_t>(pod_count), 0),
      drop_depth_(static_cast<size_t>(pod_count), 0),
      hold_depth_(static_cast<size_t>(pod_count), 0),
      drop_probability_(static_cast<size_t>(pod_count), 0.0),
      failover_magnitude_(static_cast<size_t>(pod_count), 0.0) {
  RHYTHM_CHECK(sim != nullptr);
  RHYTHM_CHECK(pod_count > 0);
  // A malformed event used to no-op (out-of-range pod) or quietly misbehave
  // (negative window, off-scale magnitude); reject it up front so the
  // mistake surfaces at wiring time, not as a silently different run.
  for (const FaultEvent& event : events_) {
    if (IsClusterScopeFault(event.kind)) {
      // Machine loss targets a ClusterRunRequest's roster; a lone deployment
      // has no machine list to kill. The cluster engine strips these events
      // before building per-group trials, so reaching here is a wiring bug.
      throw std::invalid_argument(std::string("FaultInjector: ") + FaultKindName(event.kind) +
                                  " is cluster-scope; inject it via a ClusterRunRequest");
    }
    const std::string error = FaultEventError(event, pod_count);
    if (!error.empty()) {
      throw std::invalid_argument("FaultInjector: " + error);
    }
  }
}

void FaultInjector::Start() {
  RHYTHM_CHECK(!started_);
  started_ = true;
  for (const FaultEvent& event : events_) {
    if (event.kind == FaultKind::kLoadSpike) {
      continue;  // handled by SpikedLoadProfile, not by cluster state.
    }
    sim_->ScheduleAt(event.start_s, [this, event] { Activate(event); });
    if (event.kind != FaultKind::kBeInstanceFailure && event.duration_s > 0.0) {
      sim_->ScheduleAt(event.start_s + event.duration_s, [this, event] { Deactivate(event); });
    }
  }
}

void FaultInjector::Emit(const FaultEvent& event, ObsFaultEdge edge) {
  if (obs_ == nullptr) {
    return;
  }
  ObsEvent record;
  record.time_s = sim_->Now();
  record.machine = event.pod;
  record.kind = ObsKind::kFault;
  record.code = static_cast<uint8_t>(event.kind);
  record.detail = static_cast<uint8_t>(edge);
  record.a = event.magnitude;
  record.b = event.duration_s;
  obs_->Record(record);
}

void FaultInjector::Activate(const FaultEvent& event) {
  if (!ValidPod(event.pod)) {
    return;
  }
  // Point faults record an instant; windows record their begin edge (before
  // the handlers run, so the cause precedes its consequences in the log).
  Emit(event, event.kind == FaultKind::kBeInstanceFailure ? ObsFaultEdge::kInstant
                                                          : ObsFaultEdge::kBegin);
  switch (event.kind) {
    case FaultKind::kPodCrash:
      if (offline_depth_[event.pod]++ == 0) {
        failover_magnitude_[event.pod] = std::max(event.magnitude, 0.0);
        ++counts_.crashes;
        if (crash_handler_) {
          crash_handler_(event.pod, /*online=*/false);
        }
      }
      break;
    case FaultKind::kTelemetryDropout:
      ++blackout_depth_[event.pod];
      break;
    case FaultKind::kTelemetryFreeze:
      ++frozen_depth_[event.pod];
      break;
    case FaultKind::kActuationDrop:
      ++drop_depth_[event.pod];
      drop_probability_[event.pod] = std::clamp(event.magnitude, 0.0, 1.0);
      break;
    case FaultKind::kBeInstanceFailure:
      ++counts_.be_failures;
      if (be_failure_handler_) {
        be_failure_handler_(event.pod);
      }
      break;
    case FaultKind::kBeAdmissionHold:
      if (hold_depth_[event.pod]++ == 0) {
        ++counts_.admission_holds;
        if (admission_hold_handler_) {
          admission_hold_handler_(event.pod, /*held=*/true);
        }
      }
      break;
    case FaultKind::kLoadSpike:
    // Cluster-scope kinds: Trial's validation keeps them off a deployment.
    case FaultKind::kMachineFailure:
    case FaultKind::kMachineRestart:
      break;
  }
}

void FaultInjector::Deactivate(const FaultEvent& event) {
  if (!ValidPod(event.pod)) {
    return;
  }
  Emit(event, ObsFaultEdge::kEnd);
  switch (event.kind) {
    case FaultKind::kPodCrash:
      if (--offline_depth_[event.pod] == 0) {
        failover_magnitude_[event.pod] = 0.0;
        ++counts_.reboots;
        if (crash_handler_) {
          crash_handler_(event.pod, /*online=*/true);
        }
      }
      break;
    case FaultKind::kTelemetryDropout:
      --blackout_depth_[event.pod];
      break;
    case FaultKind::kTelemetryFreeze:
      --frozen_depth_[event.pod];
      break;
    case FaultKind::kActuationDrop:
      if (--drop_depth_[event.pod] == 0) {
        drop_probability_[event.pod] = 0.0;
      }
      break;
    case FaultKind::kBeAdmissionHold:
      if (--hold_depth_[event.pod] == 0 && admission_hold_handler_) {
        admission_hold_handler_(event.pod, /*held=*/false);
      }
      break;
    case FaultKind::kBeInstanceFailure:
    case FaultKind::kLoadSpike:
    case FaultKind::kMachineFailure:
    case FaultKind::kMachineRestart:
      break;
  }
}

bool FaultInjector::DropActuation(int pod) {
  if (!ValidPod(pod) || drop_depth_[pod] == 0) {
    return false;
  }
  const double p = drop_probability_[pod];
  const bool dropped = p >= 1.0 ? true : rng_.Bernoulli(p);
  if (dropped) {
    ++counts_.dropped_actuations;
    if (obs_ != nullptr) {
      ObsEvent record;
      record.time_s = sim_->Now();
      record.machine = pod;
      record.kind = ObsKind::kFault;
      record.code = static_cast<uint8_t>(FaultKind::kActuationDrop);
      record.detail = static_cast<uint8_t>(ObsFaultEdge::kInstant);
      record.a = p;
      obs_->Record(record);
    }
  }
  return dropped;
}

double FaultInjector::FailoverInflation(int pod) const {
  if (!ValidPod(pod)) {
    return 1.0;
  }
  if (PodOffline(pod)) {
    return 1.0 + failover_magnitude_[pod];
  }
  // Survivors absorb a share of every concurrently-down pod's traffic.
  double spread = 0.0;
  for (int other = 0; other < pod_count(); ++other) {
    if (other != pod && PodOffline(other)) {
      spread += kFailoverSpreadFraction * failover_magnitude_[other];
    }
  }
  return 1.0 + spread;
}

bool FaultInjector::AnyPodOffline() const {
  return std::any_of(offline_depth_.begin(), offline_depth_.end(),
                     [](int depth) { return depth > 0; });
}

}  // namespace rhythm

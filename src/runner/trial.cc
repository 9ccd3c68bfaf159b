#include "src/runner/trial.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/cluster/app_thresholds.h"
#include "src/fault/spiked_load_profile.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/verify/invariant_monitor.h"

namespace rhythm {

namespace {

void Validate(const RunRequest& request) {
  if (request.warmup_s < 0.0 || !std::isfinite(request.warmup_s)) {
    throw std::invalid_argument("RunRequest: warmup_s must be finite and >= 0");
  }
  if (request.measure_s <= 0.0 || !std::isfinite(request.measure_s)) {
    throw std::invalid_argument("RunRequest: measure_s must be finite and > 0");
  }
  if (request.profile == nullptr && (request.load < 0.0 || !std::isfinite(request.load))) {
    throw std::invalid_argument("RunRequest: load must be finite and >= 0");
  }
  if (request.controller == ControllerKind::kRhythm && !request.thresholds.empty()) {
    const int pods = MakeApp(request.app).pod_count();
    if (static_cast<int>(request.thresholds.size()) != pods) {
      throw std::invalid_argument("RunRequest: " + std::string(LcAppKindName(request.app)) +
                                  " has " + std::to_string(pods) + " pods but " +
                                  std::to_string(request.thresholds.size()) +
                                  " thresholds were given");
    }
  }
  // Reject malformed fault events here, with the request's context, rather
  // than letting the FaultInjector throw from deep inside deployment setup.
  if (request.faults != nullptr) {
    const int pods = MakeApp(request.app).pod_count();
    for (const FaultEvent& event : request.faults->events) {
      if (IsClusterScopeFault(event.kind)) {
        throw std::invalid_argument(std::string("RunRequest: ") + FaultKindName(event.kind) +
                                    " is cluster-scope; inject it via a ClusterRunRequest");
      }
      const std::string error = FaultEventError(event, pods);
      if (!error.empty()) {
        throw std::invalid_argument("RunRequest: " + error);
      }
    }
  }
}

}  // namespace

Trial::Trial(const RunRequest& request, TrialHooks hooks)
    : request_(request), hooks_(std::move(hooks)) {
  Validate(request_);
  end_time_ = request_.warmup_s + request_.measure_s;

  DeploymentConfig config;
  config.app_kind = request_.app;
  config.be_kind = request_.be;
  config.custom_be = request_.custom_be.get();
  config.controller = request_.controller;
  config.hardening = request_.hardening;
  config.seed = request_.seed;
  config.faults = request_.faults.get();
  if (request_.controller == ControllerKind::kRhythm) {
    config.thresholds = request_.thresholds.empty()
                            ? CachedAppThresholds(request_.app).pods
                            : request_.thresholds;
  }

  // Invariant monitor and flight recorder, attached as read-only observers
  // when requested; the monitor goes first, keeping its standalone hook
  // order.
  if (request_.verify.mode != InvariantMode::kOff) {
    monitor_ = std::make_unique<InvariantMonitor>(request_.verify);
    config.observers.push_back(monitor_.get());
  }
  if (request_.obs.enabled) {
    recorder_ = std::make_unique<FlightRecorder>(request_.obs);
    config.obs_sink = recorder_.get();
    config.observers.push_back(recorder_.get());
  }

  // Resolve the load profile, layering flash-crowd spikes from the fault
  // schedule on top — previously every caller had to remember this wrap.
  if (request_.profile != nullptr) {
    profile_ = request_.profile.get();
  } else {
    constant_ = std::make_unique<ConstantLoad>(request_.load);
    profile_ = constant_.get();
  }
  if (request_.faults != nullptr && request_.faults->HasKind(FaultKind::kLoadSpike)) {
    spiked_ = std::make_unique<SpikedLoadProfile>(profile_, *request_.faults);
    profile_ = spiked_.get();
  }

  deployment_ = std::make_unique<Deployment>(config);
}

Trial::~Trial() = default;

double Trial::now() const { return deployment_->sim().Now(); }

void Trial::Start() {
  deployment_->Start(profile_);
  if (recorder_ != nullptr) {
    recorder_->ScheduleSnapshots(*deployment_);
  }
  if (hooks_.after_start) {
    hooks_.after_start(*deployment_);
  }
  started_ = true;
  if (request_.warmup_s == 0.0) {
    // A zero warmup measures from the very beginning; events scheduled at
    // t = 0 still belong to the measurement window, exactly as
    // Run()'s RunFor(0.0) boundary behaved.
    AdvanceTo(0.0);
  }
}

void Trial::AdvanceTo(double time_s) {
  const double target = std::min(time_s, end_time_);
  Simulator& sim = deployment_->sim();
  if (!measuring_) {
    if (target < request_.warmup_s) {
      sim.RunUntil(target);
      return;
    }
    // Land exactly on the warmup boundary first, so the baselines are
    // snapshot at the same instant Run()'s RunFor(warmup_s) produced.
    sim.RunUntil(request_.warmup_s);
    t0_ = sim.Now();
    kills_before_ = deployment_->TotalBeKills();
    violations_before_ = deployment_->TotalSlaViolations();
    measuring_ = true;
  }
  if (target > sim.Now()) {
    sim.RunUntil(target);
  }
}

RunSummary Trial::Harvest() const {
  RunSummary summary;
  if (measuring_) {
    const double t1 = deployment_->sim().Now();
    if (t1 > t0_) {
      summary = Summarize(*deployment_, t0_, t1, kills_before_, violations_before_);
    }
  }
  if (monitor_ != nullptr) {
    summary.invariant_violations = monitor_->violations();
    summary.invariant_violations_total = monitor_->total_violations();
  }
  return summary;
}

RunSummary Trial::Finish() {
  AdvanceTo(end_time_);
  finished_ = true;
  const double t1 = deployment_->sim().Now();
  if (monitor_ != nullptr) {
    monitor_->Finalize(*deployment_);  // throws in fail-fast mode on a breach.
  }
  RunSummary summary =
      Summarize(*deployment_, t0_, t1, kills_before_, violations_before_);
  if (monitor_ != nullptr) {
    summary.invariant_violations = monitor_->violations();
    summary.invariant_violations_total = monitor_->total_violations();
  }
  if (hooks_.inspect) {
    hooks_.inspect(*deployment_, summary);
  }
  if (recorder_ != nullptr) {
    RecordingMeta meta;
    meta.app = LcAppKindName(request_.app);
    meta.be = request_.custom_be != nullptr ? request_.custom_be->name
                                            : BeJobKindName(request_.be);
    meta.controller = ControllerKindName(request_.controller);
    meta.seed = request_.seed;
    meta.sla_ms = deployment_->sla_ms();
    meta.controller_period_s = MachineAgent::kPeriodSeconds;
    for (int pod = 0; pod < deployment_->pod_count(); ++pod) {
      meta.pods.push_back(deployment_->app().components[pod].name);
    }
    recorder_->set_meta(meta);
    const Recording recording = recorder_->TakeRecording();
    ExportRecording(recording, request_.obs);
    if (hooks_.on_recording) {
      hooks_.on_recording(recording);
    }
  }
  return summary;
}

}  // namespace rhythm

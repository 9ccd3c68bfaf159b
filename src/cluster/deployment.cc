#include "src/cluster/deployment.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "src/common/logging.h"

namespace rhythm {

const char* ControllerKindName(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kNone:
      return "none";
    case ControllerKind::kRhythm:
      return "Rhythm";
    case ControllerKind::kHeracles:
      return "Heracles";
  }
  return "?";
}

Deployment::Deployment(const DeploymentConfig& config)
    : config_(config),
      app_(MakeApp(config.app_kind)),
      tail_sampled_at_(std::numeric_limits<double>::quiet_NaN()) {
  const int pods = app_.pod_count();
  pod_series_.resize(pods);

  for (int pod = 0; pod < pods; ++pod) {
    LcReservation reservation;
    // Reserve the component's peak footprint plus headroom, never more than
    // half the machine (the paper's containers leave room for BEs).
    reservation.cores = std::min(
        config.machine_spec.total_cores / 2,
        static_cast<int>(app_.components[pod].peak_busy_cores) + 4);
    reservation.min_llc_ways = std::max(2, config.machine_spec.llc_ways / 5);
    reservation.memory_gb = config.machine_spec.dram_gb / 2.0;
    machines_.push_back(std::make_unique<Machine>(
        app_.components[pod].name, config.machine_spec, reservation));
  }

  LcService::Config service_config;
  service_config.seed = config.seed;
  service_config.record_sojourns = config.record_sojourns;
  service_config.sink = config.sink;
  service_config.tail_window_s = config.tail_window_s;
  service_config.noise_events_per_request = config.noise_events_per_request;
  service_ = std::make_unique<LcService>(&sim_, app_, service_config);

  if (config.enable_be) {
    for (int pod = 0; pod < pods; ++pod) {
      be_runtimes_.push_back(
          config.custom_be != nullptr
              ? std::make_unique<BeRuntime>(machines_[pod].get(), *config.custom_be)
              : std::make_unique<BeRuntime>(machines_[pod].get(), config.be_kind));
    }
  }

  if (config.controller != ControllerKind::kNone) {
    RHYTHM_CHECK(config.enable_be);
    for (int pod = 0; pod < pods; ++pod) {
      ServpodThresholds thresholds;
      if (config.controller == ControllerKind::kHeracles) {
        thresholds = HeraclesThresholds();
      } else {
        RHYTHM_CHECK(static_cast<int>(config.thresholds.size()) == pods);
        thresholds = config.thresholds[pod];
      }
      agents_.push_back(std::make_unique<MachineAgent>(machines_[pod].get(),
                                                       be_runtimes_[pod].get(), thresholds,
                                                       app_.sla_ms, pod, config.hardening));
      if (config.obs_sink != nullptr) {
        agents_.back()->AttachObs(config.obs_sink, pod);
      }
    }
  }

  if (config.be_arrival_rate_per_s > 0.0 && config.enable_be) {
    backlog_.set_infinite(false);
    scheduler_ = std::make_unique<BeScheduler>(&backlog_);
    scheduler_->AttachObs(config.obs_sink);
    for (int pod = 0; pod < pods; ++pod) {
      be_runtimes_[pod]->SetBacklog(&backlog_);
      be_runtimes_[pod]->set_self_launch_allowed(false);
      scheduler_->AddMachine(BeScheduler::MachineSlot{
          machines_[pod].get(), be_runtimes_[pod].get(),
          agents_.empty() ? nullptr : agents_[pod].get(), pod});
    }
  }

  // Fault wiring: the injector owns its own RNG stream (derived from the run
  // seed) so fault realizations are deterministic and fault-free runs draw
  // nothing extra.
  telemetry_.resize(pods);
  if (config.faults != nullptr && !config.faults->empty()) {
    const uint64_t fault_seed = config.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
    fault_ = std::make_unique<FaultInjector>(&sim_, *config.faults, pods, fault_seed);
    fault_->AttachObs(config.obs_sink);
    fault_->set_crash_handler([this](int pod, bool online) {
      if (online) {
        OnPodReboot(pod);
      } else {
        OnPodCrash(pod);
      }
    });
    fault_->set_admission_hold_handler([this](int pod, bool held) {
      service_->InflationChanged();
      BeRuntime* be = this->be(pod);
      if (be == nullptr) {
        return;
      }
      if (held) {
        // The cluster withdraws BE work: instances stop (in-flight work
        // forfeited), admission closes until the window ends.
        const int lost = be->StopAll();
        be_withdrawals_ += static_cast<uint64_t>(lost);
        be->set_admission_blocked(true);
        be->PublishActivity();
        EmitObs(ObsKind::kBeLifecycle, pod, static_cast<uint8_t>(ObsBeOp::kWithdraw), 0,
                static_cast<double>(lost));
      } else if (PodOnline(pod)) {  // a concurrent crash keeps the pod closed.
        be->set_admission_blocked(false);
        EmitObs(ObsKind::kBeLifecycle, pod, static_cast<uint8_t>(ObsBeOp::kReadmit), 0, 0.0);
      }
    });
    fault_->set_be_failure_handler([this](int pod) {
      service_->InflationChanged();
      BeRuntime* be = this->be(pod);
      if (be != nullptr && be->FailOneInstance()) {
        ++be_instance_failures_;
        ++crash_be_losses_;
        be->PublishActivity();
        EmitObs(ObsKind::kBeLifecycle, pod, static_cast<uint8_t>(ObsBeOp::kInstanceFailure),
                0, 1.0);
      }
    });
    if (config.enable_be) {
      for (int pod = 0; pod < pods; ++pod) {
        be_runtimes_[pod]->SetActuationGate(
            [this, pod](const char*) { return fault_->DropActuation(pod); });
      }
    }
  }

  // Interference wiring: the LC's inflation at pod i comes from machine i's
  // state and its BE runtime; a crash failover multiplies in the cold-standby
  // and survivor-absorption penalties. The service keeps each pod's value
  // for its request walk, so every path below that changes any of this
  // state calls InflationChanged() (the list is in lc_service.h).
  service_->SetInflationProvider([this](int pod) {
    const BeRuntime* be = be_runtimes_.empty() ? nullptr : be_runtimes_[pod].get();
    double inflation =
        InterferenceModel::Inflation(app_.components[pod].sensitivity, *machines_[pod], be);
    if (fault_ != nullptr) {
      inflation *= fault_->FailoverInflation(pod);
    }
    return inflation;
  });
}

void Deployment::Start(const LoadProfile* profile) {
  RHYTHM_CHECK(!started_);
  started_ = true;
  service_->SetLoadProfile(profile);
  service_->Start();
  sim_.SchedulePeriodic(config_.accounting_period_s, config_.accounting_period_s,
                       [this] { AccountingTick(); });
  if (!agents_.empty()) {
    sim_.SchedulePeriodic(MachineAgent::kPeriodSeconds, MachineAgent::kPeriodSeconds,
                         [this] { ControllerTick(); });
  }
  if (fault_ != nullptr) {
    fault_->Start();
  }
}

void Deployment::RunFor(double seconds) { sim_.RunUntil(sim_.Now() + seconds); }

double Deployment::SampledTailMs() {
  const double now = sim_.Now();
  if (tail_sampled_at_ != now) {  // NaN seed never matches: first call samples.
    tail_sample_ = service_->TailLatencyMs();
    tail_sampled_at_ = now;
  }
  return tail_sample_;
}

void Deployment::AccountingTick() {
  service_->InflationChanged();  // LC activity, BE steps and dispatch below.
  const double now = sim_.Now();
  if (scheduler_ != nullptr) {
    // BE job arrivals into the cluster queue.
    arrival_accumulator_ += config_.be_arrival_rate_per_s * config_.accounting_period_s;
    const uint64_t whole = static_cast<uint64_t>(arrival_accumulator_);
    if (whole > 0) {
      backlog_.SubmitJobs(whole);
      arrival_accumulator_ -= static_cast<double>(whole);
    }
    if (agents_.empty()) {
      // No controllers: dispatch freely.
      scheduler_->set_obs_now(now);
      scheduler_->DispatchRound();
    }
  }
  const double load = service_->CurrentLoad();
  load_series_.Add(now, load);
  const double tail = SampledTailMs();
  tail_series_.Add(now, tail);
  const double slack = TopController::Slack(tail, app_.sla_ms);
  slack_series_.Add(now, slack);

  // Accounting-granularity violation counter: exists even when no agents run
  // (kNone baselines), so fault runs can compare controllers against "do
  // nothing" on the same measure.
  if (slack < 0.0) {
    ++slack_violation_ticks_;
    EmitObs(ObsKind::kSloViolation, /*machine=*/-1,
            static_cast<uint8_t>(ObsSloScope::kAccounting), 0, slack, tail);
  }
  if (awaiting_recovery_) {
    if (slack < 0.0) {
      // The crash's dent has reached the tail window; the clock runs until
      // the next positive-slack tick.
      recovery_dented_ = true;
      max_recovery_s_ = std::max(max_recovery_s_, now - recovery_start_);
    } else if (recovery_dented_) {
      max_recovery_s_ = std::max(max_recovery_s_, now - recovery_start_);
      awaiting_recovery_ = false;
      recovery_dented_ = false;
    } else if (fault_ == nullptr || !fault_->AnyPodOffline()) {
      // Machine back and the slack never went negative: nothing to recover.
      awaiting_recovery_ = false;
    }
  }

  // Telemetry publication — what the controller agents will see. A blackout
  // skips the update (the sample ages, which the stale detector catches); a
  // freeze refreshes the timestamp under a stale value (undetectable — the
  // guards must contain the damage).
  for (int pod = 0; pod < pod_count(); ++pod) {
    if (fault_ != nullptr && fault_->TelemetryBlackout(pod)) {
      continue;
    }
    telemetry_[pod].sampled_at = now;
    if (fault_ == nullptr || !fault_->TelemetryFrozen(pod)) {
      telemetry_[pod].tail_ms = tail;
    }
  }

  const double elapsed_hours = now / 3600.0;
  for (int pod = 0; pod < pod_count(); ++pod) {
    Machine& machine = *machines_[pod];
    if (fault_ != nullptr && fault_->PodOffline(pod)) {
      machine.SetLcActivity(0.0, 0.0, 0.0);  // dead machine, nothing runs.
    } else {
      machine.SetLcActivity(service_->PodBusyCores(pod), service_->PodMembwGbs(pod),
                            service_->PodNetGbps(pod));
    }
    BeRuntime* be = be_runtimes_.empty() ? nullptr : be_runtimes_[pod].get();
    if (be != nullptr) {
      be->Step(config_.accounting_period_s);
      be->PublishActivity();
    }
    PodSeries& series = pod_series_[pod];
    series.cpu_util.Add(now, machine.CpuUtilization());
    series.membw_util.Add(now, machine.MembwUtilization());
    if (be != nullptr) {
      series.be_instances.Add(now, be->instance_count());
      series.be_cores.Add(now, be->TotalCoresHeld());
      series.be_ways.Add(now, be->TotalWaysHeld());
      series.be_progress.Add(now, be->progress_units());
      series.be_throughput.Add(now, be->NormalizedThroughput(elapsed_hours));
    }
  }
  for (DeploymentObserver* observer : config_.observers) {
    observer->AfterAccountingTick(*this);
  }
}

void Deployment::ControllerTick() {
  service_->InflationChanged();  // agent actuations and dispatch below.
  const double now = sim_.Now();
  const double load = service_->CurrentLoad();
  const double tail = SampledTailMs();
  for (int pod = 0; pod < pod_count(); ++pod) {
    if (fault_ != nullptr && fault_->PodOffline(pod)) {
      continue;  // the agent died with its machine.
    }
    // Fault runs consume the *published* tail sample with its age, so
    // telemetry faults reach the stale-signal detector; healthy runs read
    // the live signal with zero age.
    const MachineAgent::TelemetrySample sample =
        fault_ != nullptr ? MachineAgent::TelemetrySample{
                                .load = load,
                                .tail_ms = telemetry_[pod].tail_ms,
                                .tail_age_s = now - telemetry_[pod].sampled_at,
                                .lc_utilization = service_->PodUtilization(pod)}
                          : MachineAgent::TelemetrySample{
                                .load = load,
                                .tail_ms = tail,
                                .lc_utilization = service_->PodUtilization(pod)};
    for (DeploymentObserver* observer : config_.observers) {
      observer->BeforeAgentTick(*this, pod, sample);
    }
    agents_[pod]->set_obs_now(now);
    agents_[pod]->Tick(sample);
  }
  // Dispatch after the fresh decisions, paced like the agents' own growth so
  // admissions cannot outrun the tail window's feedback.
  ++controller_ticks_;
  if (scheduler_ != nullptr && controller_ticks_ % MachineAgent::kGrowthPeriodTicks == 0) {
    scheduler_->set_obs_now(now);
    scheduler_->DispatchRound();
  }
  for (DeploymentObserver* observer : config_.observers) {
    observer->AfterControllerTick(*this);
  }
}

void Deployment::LaunchBeAtPod(int pod, int instances) {
  service_->InflationChanged();
  BeRuntime* be = this->be(pod);
  RHYTHM_CHECK(be != nullptr);
  for (int i = 0; i < instances; ++i) {
    if (!be->LaunchInstance()) {
      break;
    }
    // Grow this instance to its full demand (cores and CAT ways arrive one
    // step at a time).
    const int index = be->instance_count() - 1;
    while (be->GrowInstance(index)) {
    }
    while (be->GrowMemoryStep()) {
    }
  }
  be->PublishActivity();
}

void Deployment::EmitObs(ObsKind kind, int machine, uint8_t code, uint8_t detail, double a,
                         double b) {
  if (config_.obs_sink == nullptr) {
    return;
  }
  ObsEvent event;
  event.time_s = sim_.Now();
  event.machine = machine;
  event.kind = kind;
  event.code = code;
  event.detail = detail;
  event.a = a;
  event.b = b;
  config_.obs_sink->Record(event);
}

uint64_t Deployment::TotalBeKills() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().be_kills;
  }
  return total;
}

uint64_t Deployment::TotalSlaViolations() const {
  // Violations are counted once per controller tick; with one LC service the
  // agents all observe the same tail, so report the per-pod maximum rather
  // than the sum.
  uint64_t worst = 0;
  for (const auto& agent : agents_) {
    worst = std::max(worst, agent->stats().sla_violations);
  }
  return worst;
}

uint64_t Deployment::TotalStaleTicks() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().stale_ticks;
  }
  return total;
}

uint64_t Deployment::TotalFailedActuations() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().failed_actuations;
  }
  return total;
}

uint64_t Deployment::TotalBackoffHolds() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().backoff_holds;
  }
  return total;
}

uint64_t Deployment::TotalJitterHolds() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().jitter_holds;
  }
  return total;
}

uint64_t Deployment::TotalOscillationTrips() const {
  uint64_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->stats().oscillation_trips;
  }
  return total;
}

void Deployment::OnPodCrash(int pod) {
  service_->InflationChanged();  // BE losses and every pod's FailoverInflation.
  ++crash_count_;
  if (!awaiting_recovery_) {
    awaiting_recovery_ = true;
    recovery_start_ = sim_.Now();
  }
  machines_[pod]->SetLcActivity(0.0, 0.0, 0.0);
  BeRuntime* be = this->be(pod);
  if (be != nullptr) {
    // Instances die with the machine — these are crash losses, not kills.
    const int lost = be->StopAll();
    crash_be_losses_ += static_cast<uint64_t>(lost);
    be->set_admission_blocked(true);
    be->PublishActivity();
    if (lost > 0) {
      EmitObs(ObsKind::kBeLifecycle, pod, static_cast<uint8_t>(ObsBeOp::kCrashLoss), 0,
              static_cast<double>(lost));
    }
  }
  for (DeploymentObserver* observer : config_.observers) {
    observer->OnPodCrash(*this, pod);
  }
}

void Deployment::OnPodReboot(int pod) {
  service_->InflationChanged();  // admission and every pod's FailoverInflation.
  BeRuntime* be = this->be(pod);
  if (be != nullptr && (fault_ == nullptr || !fault_->AdmissionHeld(pod))) {
    be->set_admission_blocked(false);  // an active hold keeps admission shut.
  }
  // The rebooted machine re-registers with a fresh measurement, but its agent
  // holds BE growth back while the pod warms up.
  telemetry_[pod].tail_ms = SampledTailMs();
  telemetry_[pod].sampled_at = sim_.Now();
  if (!agents_.empty()) {
    // A reboot is a heavier disruption than a single kill: arm the full
    // exponential hold rather than entering at level one.
    for (uint64_t i = 0; i < MachineAgent::kBackoffMaxLevel; ++i) {
      agents_[pod]->TriggerBackoff();
    }
  }
  for (DeploymentObserver* observer : config_.observers) {
    observer->OnPodReboot(*this, pod);
  }
}

}  // namespace rhythm

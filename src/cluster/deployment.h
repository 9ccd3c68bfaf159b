// Deployment: one LC service spread over its Servpods' machines, plus BE
// runtimes and (optionally) a controller agent per machine — the paper's
// testbed in simulation.
//
// Wiring:
//   * the deployment owns its discrete-event simulator; every component
//     below schedules on it, and a new deployment starts on a fresh one;
//   * each Servpod gets its own Machine;
//   * the LC service's per-pod inflation is computed by the interference
//     model from that machine's state and its co-located BE runtime;
//   * an accounting task (1 s) publishes LC/BE activity into the machines,
//     advances BE progress and samples metrics;
//   * a controller task (2 s) runs each machine's agent (Rhythm thresholds
//     per pod, Heracles uniform thresholds, or none);
//   * an optional fault schedule (src/fault) injects machine crashes with
//     pod failover, telemetry dropouts, lost actuations and BE-instance
//     deaths; the deployment tracks recovery time to positive slack.
//
// Telemetry path: with a fault schedule attached, agents consume the tail
// sample the accounting task last *published* (with its age), so telemetry
// faults are visible to the stale-signal detector. Without faults the agents
// read the live signal, which keeps healthy runs bit-identical to the
// pre-fault-layer behaviour.

#ifndef RHYTHM_SRC_CLUSTER_DEPLOYMENT_H_
#define RHYTHM_SRC_CLUSTER_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "src/baseline/heracles.h"
#include "src/bemodel/be_runtime.h"
#include "src/common/time_series.h"
#include "src/control/machine_agent.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/interference/interference_model.h"
#include "src/obs/obs_event.h"
#include "src/resources/machine.h"
#include "src/scheduler/be_backlog.h"
#include "src/scheduler/be_scheduler.h"
#include "src/sim/simulator.h"
#include "src/verify/deployment_observer.h"
#include "src/workload/app_catalog.h"
#include "src/workload/lc_service.h"
#include "src/workload/load_profile.h"

namespace rhythm {

enum class ControllerKind { kNone, kRhythm, kHeracles };

const char* ControllerKindName(ControllerKind kind);

struct DeploymentConfig {
  LcAppKind app_kind = LcAppKind::kEcommerce;
  BeJobKind be_kind = BeJobKind::kCpuStress;
  // Optional non-catalog BE spec (must outlive the deployment). When set, BE
  // runtimes run this spec and `be_kind` is ignored — the adversarial
  // search's decoded genomes enter the cluster here.
  const BeJobSpec* custom_be = nullptr;
  ControllerKind controller = ControllerKind::kNone;
  // Per-pod thresholds; required when controller == kRhythm. Heracles uses
  // its uniform thresholds regardless.
  std::vector<ServpodThresholds> thresholds;
  // Opt-in controller fail-safes (default off — bit-identical baseline);
  // applied to every machine agent.
  ControlHardening hardening;
  uint64_t seed = 1;
  bool enable_be = true;               // false: solo LC run.
  bool record_sojourns = false;        // per-request sojourn stats.
  EventSink* sink = nullptr;           // kernel-event capture (profiling).
  double noise_events_per_request = 0.0;
  double accounting_period_s = 1.0;
  double tail_window_s = 6.0;  // short window: fresh signal for control.
  MachineSpec machine_spec;            // same hardware on every machine.
  // Cluster scheduler integration (paper §4): when positive, BE jobs arrive
  // into a shared waiting queue at this rate and are dispatched only to
  // machines whose controllers accept BEs; machines may not self-launch.
  // 0 keeps the §5 evaluation setup (jobs always locally available).
  double be_arrival_rate_per_s = 0.0;
  // Optional fault schedule (must outlive the deployment). Load-spike events
  // are not applied here — wrap the profile in a SpikedLoadProfile.
  const FaultSchedule* faults = nullptr;
  // Read-only observers (each must outlive the deployment), notified in
  // list order at tick boundaries and crash edges: the invariant monitor's
  // and the flight recorder's hook. An attached observer must never perturb
  // the run (no mutation, no RNG).
  std::vector<DeploymentObserver*> observers;
  // Optional observability sink (must outlive the deployment). When set, the
  // deployment distributes it to every instrumented layer — agents,
  // scheduler, fault injector — and emits its own cluster-scope events
  // (accounting SLO violations, crash BE losses). Like the observer, a sink
  // must never perturb the run.
  ObsSink* obs_sink = nullptr;
};

// Per-pod metric series sampled by the accounting task.
struct PodSeries {
  TimeSeries cpu_util;
  TimeSeries membw_util;
  TimeSeries be_instances;
  TimeSeries be_cores;
  TimeSeries be_ways;
  TimeSeries be_progress;     // cumulative completed work, in jobs.
  TimeSeries be_throughput;   // windowed normalized throughput estimate.
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& config);

  // Starts the LC arrival process, accounting and controller tasks.
  // The profile must outlive the deployment.
  void Start(const LoadProfile* profile);

  // Advances the simulation `seconds` further.
  void RunFor(double seconds);

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  LcService& service() { return *service_; }
  const AppSpec& app() const { return app_; }
  int pod_count() const { return app_.pod_count(); }

  // The non-const accessors hand out what the LC's inflation reads, so each
  // marks the service's kept inflation stale (LcService::InflationChanged).
  Machine& machine(int pod) {
    service_->InflationChanged();
    return *machines_[pod];
  }
  const Machine& machine(int pod) const { return *machines_[pod]; }
  BeRuntime* be(int pod) {
    service_->InflationChanged();
    return be_runtimes_.empty() ? nullptr : be_runtimes_[pod].get();
  }
  const BeRuntime* be(int pod) const {
    return be_runtimes_.empty() ? nullptr : be_runtimes_[pod].get();
  }
  MachineAgent* agent(int pod) {
    service_->InflationChanged();
    return agents_.empty() ? nullptr : agents_[pod].get();
  }
  const MachineAgent* agent(int pod) const {
    return agents_.empty() ? nullptr : agents_[pod].get();
  }

  const PodSeries& pod_series(int pod) const { return pod_series_[pod]; }
  const TimeSeries& load_series() const { return load_series_; }
  const TimeSeries& tail_series() const { return tail_series_; }
  const TimeSeries& slack_series() const { return slack_series_; }

  // Uncontrolled co-location (the §2 characterization runs): launches
  // `instances` BE instances at `pod` and grows them until they reach their
  // full resource demand or the machine runs out. Requires enable_be and is
  // meant for controller-free deployments.
  void LaunchBeAtPod(int pod, int instances);

  // Cluster scheduler state (null/empty when be_arrival_rate_per_s == 0).
  BeBacklog& backlog() { return backlog_; }
  const BeScheduler* scheduler() const { return scheduler_.get(); }

  // Sum of BE kills / SLA-violation ticks across agents so far.
  uint64_t TotalBeKills() const;
  uint64_t TotalSlaViolations() const;

  // Hardening counters summed across agents.
  uint64_t TotalStaleTicks() const;
  uint64_t TotalFailedActuations() const;
  uint64_t TotalBackoffHolds() const;
  uint64_t TotalJitterHolds() const;
  uint64_t TotalOscillationTrips() const;

  // Fault state (null without a schedule).
  const FaultInjector* fault() const { return fault_.get(); }
  // The schedule this deployment was configured with (null without faults);
  // observers use it to locate the last fault window for liveness checks.
  const FaultSchedule* fault_schedule() const { return config_.faults; }
  bool PodOnline(int pod) const { return fault_ == nullptr || !fault_->PodOffline(pod); }
  uint64_t crash_count() const { return crash_count_; }
  // BE instances lost to machine crashes / instance failures (not controller
  // kills).
  uint64_t crash_be_losses() const { return crash_be_losses_; }
  uint64_t be_instance_failures() const { return be_instance_failures_; }
  // BE instances withdrawn by kBeAdmissionHold windows (cluster-side
  // preemption, not controller kills and not crash losses).
  uint64_t be_withdrawals() const { return be_withdrawals_; }
  // Accounting ticks observed with negative slack — a violation measure that
  // exists even without controller agents (kNone baselines).
  uint64_t slack_violation_ticks() const { return slack_violation_ticks_; }
  // Worst time from a crash to the next accounting tick with positive slack,
  // counted only once the crash actually dented the slack; 0 when none did.
  // False `recovered` means a dent was still unhealed when the run ended
  // (the elapsed time so far is reported).
  double max_recovery_s() const { return max_recovery_s_; }
  bool recovered() const { return !awaiting_recovery_; }

  double sla_ms() const { return app_.sla_ms; }

  // Tail telemetry as last published per pod (the controller's view; ages
  // during blackouts). Exposed read-only for observers.
  struct PodTelemetry {
    double tail_ms = 0.0;
    double sampled_at = 0.0;
  };
  const PodTelemetry& published_telemetry(int pod) const { return telemetry_[pod]; }

 private:
  void AccountingTick();
  void ControllerTick();
  // Cluster-scope event emission (no-op without an attached sink).
  void EmitObs(ObsKind kind, int machine, uint8_t code, uint8_t detail, double a = 0.0,
               double b = 0.0);
  void OnPodCrash(int pod);
  void OnPodReboot(int pod);
  // The windowed tail, sampled at most once per simulated instant: the
  // accounting tick, controller tick and reboot handler all run at tick
  // timestamps and previously each recomputed the quantile; one sample per
  // instant also guarantees telemetry publication and controller decisions
  // within a tick observe the same value.
  double SampledTailMs();

  DeploymentConfig config_;
  AppSpec app_;
  // The event engine. Declared before every member that schedules on it, so
  // it is destroyed after them.
  Simulator sim_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::unique_ptr<LcService> service_;
  std::vector<std::unique_ptr<BeRuntime>> be_runtimes_;
  std::vector<std::unique_ptr<MachineAgent>> agents_;
  BeBacklog backlog_;
  std::unique_ptr<BeScheduler> scheduler_;
  double arrival_accumulator_ = 0.0;
  uint64_t controller_ticks_ = 0;
  // SampledTailMs memo (tail_sampled_at_ is NaN until the first sample).
  double tail_sample_ = 0.0;
  double tail_sampled_at_;
  std::vector<PodSeries> pod_series_;
  TimeSeries load_series_;
  TimeSeries tail_series_;
  TimeSeries slack_series_;
  bool started_ = false;

  // Fault wiring.
  std::unique_ptr<FaultInjector> fault_;
  std::vector<PodTelemetry> telemetry_;
  uint64_t crash_count_ = 0;
  uint64_t crash_be_losses_ = 0;
  uint64_t be_instance_failures_ = 0;
  uint64_t be_withdrawals_ = 0;
  uint64_t slack_violation_ticks_ = 0;
  // Recovery-to-positive-slack tracking for the earliest unhealed crash.
  bool awaiting_recovery_ = false;
  bool recovery_dented_ = false;   // slack has gone negative since the crash.
  double recovery_start_ = 0.0;
  double max_recovery_s_ = 0.0;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_CLUSTER_DEPLOYMENT_H_

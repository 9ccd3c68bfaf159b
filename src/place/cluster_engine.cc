#include "src/place/cluster_engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/common/env.h"
#include "src/common/shard_pool.h"
#include "src/control/machine_agent.h"
#include "src/obs/exporters.h"
#include "src/runner/trial.h"
#include "src/sim/sharded_engine.h"
#include "src/verify/cluster_invariants.h"

namespace rhythm {

namespace {

void ValidateRequest(const ClusterRunRequest& request) {
  if (request.spec.machines <= 0) {
    throw std::invalid_argument("ClusterRunRequest: machines must be positive");
  }
  if (request.spec.TotalGroups() <= 0) {
    throw std::invalid_argument("ClusterRunRequest: lc_demand is empty");
  }
  if (request.epochs <= 0) {
    throw std::invalid_argument("ClusterRunRequest: epochs must be positive");
  }
  if (request.warmup_s < 0.0 || request.measure_s <= 0.0) {
    throw std::invalid_argument("ClusterRunRequest: bad trial windows");
  }
  if (request.faults != nullptr) {
    for (const FaultEvent& event : request.faults->events) {
      if (!IsClusterScopeFault(event.kind)) {
        throw std::invalid_argument(
            std::string("ClusterRunRequest: ") + FaultKindName(event.kind) +
            " is a per-deployment fault; cluster schedules accept only "
            "machine-scope kinds (MachineFailure, MachineRestart)");
      }
      const std::string error =
          FaultEventError(event, request.spec.machines);
      if (!error.empty()) {
        throw std::invalid_argument("ClusterRunRequest: " + error);
      }
    }
  }
}

double EpochLoadScale(const ClusterRunRequest& request, int epoch) {
  if (epoch < static_cast<int>(request.epoch_load_scale.size())) {
    return request.epoch_load_scale[epoch];
  }
  return 1.0;
}

ObsEvent PlacementEvent(double time_s, ObsPlacementOp op, int machine,
                        double a, double b, double c, double d,
                        uint8_t detail = 0) {
  ObsEvent event;
  event.time_s = time_s;
  event.machine = machine;
  event.kind = ObsKind::kPlacement;
  event.code = static_cast<uint8_t>(op);
  event.detail = detail;
  event.a = a;
  event.b = b;
  event.c = c;
  event.d = d;
  return event;
}

// Whether a group kept its effective assignment between two epochs' placements:
// the same placed-ness and solo flag, and the same BE when it runs co-located.
bool SameAssignment(const GroupOutcome& was, const GroupOutcome& now) {
  return now.placed == was.placed && now.run_solo == was.run_solo &&
         (now.run_solo || !now.placed || now.be == was.be);
}

// One scheduled machine-liveness edge, quantized to its enactment barrier.
// Barriers are the conservative-window boundaries: epoch-local multiples of
// MachineAgent::kPeriodSeconds, plus every epoch start. An edge lands at the
// first barrier at/after its scheduled time; an edge that would land at/after
// the epoch's final barrier defers to the next epoch's start (the epoch-end
// barrier only harvests — by then the trials are already over), and edges
// past the run horizon never enact.
struct MachineTransition {
  int machine = 0;
  bool rejoin = false;
  int event_id = 0;         // pairs a restart's loss with its rejoin.
  double scheduled_s = 0.0;  // the schedule's edge time (cluster clock).
  double downtime_s = 0.0;   // loss edges: planned downtime (0 = permanent).
  int epoch = 0;             // enactment barrier.
  double window_s = 0.0;     // epoch-local; an exact multiple of the window.
};

std::vector<MachineTransition> BuildTransitions(
    const ClusterRunRequest& request, double epoch_span_s) {
  std::vector<MachineTransition> transitions;
  if (request.faults == nullptr || request.faults->empty()) {
    return transitions;
  }
  const double window = MachineAgent::kPeriodSeconds;

  // Quantization is guarded against float error in both directions: k is the
  // smallest integer with k * window >= local, found by division and then
  // corrected by comparison — the comparisons, not the division, decide.
  auto quantize = [&](double time_s, MachineTransition& out) {
    int epoch = static_cast<int>(time_s / epoch_span_s);
    double local = time_s - epoch * epoch_span_s;
    if (local < 0.0) {
      --epoch;
      local = time_s - epoch * epoch_span_s;
    }
    int k = static_cast<int>(std::ceil(local / window));
    if (k < 0) {
      k = 0;
    }
    while (k * window < local) {
      ++k;
    }
    while (k > 0 && (k - 1) * window >= local) {
      --k;
    }
    if (k * window >= epoch_span_s) {
      ++epoch;
      k = 0;
    }
    if (epoch >= request.epochs) {
      return false;  // past the horizon: inert.
    }
    out.epoch = epoch;
    out.window_s = k * window;
    return true;
  };

  int event_id = 0;
  for (const FaultEvent& event : request.faults->Sorted()) {
    MachineTransition loss;
    loss.machine = event.pod;
    loss.event_id = event_id;
    loss.scheduled_s = event.start_s;
    loss.downtime_s =
        event.kind == FaultKind::kMachineRestart ? event.duration_s : 0.0;
    const bool loss_live = quantize(event.start_s, loss);
    if (event.kind == FaultKind::kMachineRestart) {
      MachineTransition up;
      up.machine = event.pod;
      up.rejoin = true;
      up.event_id = event_id;
      up.scheduled_s = event.start_s + event.duration_s;
      const bool up_live = loss_live && quantize(up.scheduled_s, up);
      // A downtime shorter than one window quantizes loss and rejoin onto
      // the same barrier — invisible at barrier granularity, so the whole
      // restart degrades to a no-op rather than a spurious permanent loss.
      const bool same_barrier =
          up_live && up.epoch == loss.epoch && up.window_s == loss.window_s;
      if (loss_live && !same_barrier) {
        transitions.push_back(loss);
        if (up_live) {
          transitions.push_back(up);
        }
      }
    } else if (loss_live) {
      transitions.push_back(loss);
    }
    ++event_id;
  }

  // Barrier order; within one barrier, rejoins enact before losses (a
  // machine freed and re-lost at the same instant ends up down, owned by
  // the loss), then machine, then schedule order.
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const MachineTransition& a, const MachineTransition& b) {
                     if (a.epoch != b.epoch) {
                       return a.epoch < b.epoch;
                     }
                     if (a.window_s != b.window_s) {
                       return a.window_s < b.window_s;
                     }
                     if (a.rejoin != b.rejoin) {
                       return a.rejoin;
                     }
                     if (a.machine != b.machine) {
                       return a.machine < b.machine;
                     }
                     return a.event_id < b.event_id;
                   });
  return transitions;
}

// Thresholds for one placed group's trial under the Rhythm controller:
// the scoring model's per-pod thresholds (so injected stub models control
// the trial too), or all-zero loadlimits for solo groups — loadlimit 0
// forbids BE admission entirely.
std::vector<ServpodThresholds> TrialThresholds(const AppPlacementModel& model,
                                               const GroupOutcome& outcome) {
  std::vector<ServpodThresholds> thresholds;
  if (outcome.run_solo) {
    thresholds.assign(static_cast<size_t>(outcome.pods),
                      ServpodThresholds{0.0, 0.5});
    return thresholds;
  }
  if (static_cast<int>(model.pods.size()) == outcome.pods) {
    thresholds.reserve(model.pods.size());
    for (const PodPlacementModel& pod : model.pods) {
      thresholds.push_back(pod.thresholds);
    }
  }
  return thresholds;  // empty: Run() falls back to CachedAppThresholds.
}

RunRequest TrialRequest(
    const ClusterRunRequest& request, const GroupOutcome& outcome,
    int groups_per_epoch,
    const std::function<const AppPlacementModel&(LcAppKind)>& model_of) {
  RunRequest trial;
  trial.app = outcome.app;
  trial.be = outcome.be;
  trial.controller = request.controller;
  trial.hardening = request.hardening;
  trial.seed = DeriveGroupSeed(request.seed, outcome.epoch, groups_per_epoch,
                               outcome.group);
  trial.warmup_s = request.warmup_s;
  trial.measure_s = request.measure_s;
  trial.load = outcome.load;
  trial.verify = request.verify;
  if (request.controller == ControllerKind::kRhythm) {
    trial.thresholds = TrialThresholds(model_of(outcome.app), outcome);
  }
  trial.label = (request.label.empty() ? request.policy : request.label) +
                "/e" + std::to_string(outcome.epoch) + "/g" +
                std::to_string(outcome.group);
  return trial;
}

// Executes one validated ClusterRunRequest on the partitioned engine:
// per-epoch placement over the machine roster, windowed simulation split
// into segments at machine-loss barriers, supervisor failover, and the
// cluster-scope invariant checks. Everything here runs on the coordinating
// thread between Advance calls and draws no randomness, so results stay
// bit-identical at any shard count; with no machine faults scheduled the
// execution reduces exactly to the pre-failure-domain engine (one segment
// per epoch, first-fit allocation == the old cursor, served fractions
// exactly 1.0).
class RequestExecution {
 public:
  explicit RequestExecution(const ClusterRunRequest& request)
      : request_(request),
        groups_per_epoch_(request.spec.TotalGroups()),
        epoch_span_s_(request.warmup_s + request.measure_s),
        policy_(MakePlacementPolicy(request.policy, request.seed)),
        supervisor_(request.spec.machines, request.supervisor),
        checker_(request.verify, request.spec.machines),
        transitions_(BuildTransitions(request, epoch_span_s_)),
        loss_owner_(static_cast<size_t>(request.spec.machines), -1),
        slots_(static_cast<size_t>(request.spec.TotalGroups())) {
    model_of_ = [this](LcAppKind app) -> const AppPlacementModel& {
      auto it = models_.find(app);
      if (it == models_.end()) {
        AppPlacementModel model = request_.model_provider
                                      ? request_.model_provider(app)
                                      : DefaultPlacementModel(app);
        it = models_.emplace(app, std::move(model)).first;
      }
      return it->second;
    };
  }

  void Run(ShardedEngine& engine) {
    engine_ = &engine;
    size_t next = 0;
    for (int epoch = 0; epoch < request_.epochs; ++epoch) {
      BeginEpoch(epoch, next);
      double from = 0.0;
      while (true) {
        double barrier = epoch_span_s_;
        bool enact = false;
        if (next < transitions_.size() && transitions_[next].epoch == epoch) {
          barrier = transitions_[next].window_s;
          enact = true;
        }
        AdvanceSegment(epoch, from, barrier, enact);
        if (!enact) {
          break;
        }
        EnactBarrier(epoch, barrier, next);
        from = barrier;
      }
      HarvestEpoch(epoch);
    }
  }

  ClusterSummary Summarize() {
    ClusterSummary summary = RollupCluster(request_, std::move(outcomes_));
    // What the outcomes do not record: machine liveness edges, failover
    // latency, degraded time and the cluster-scope invariant findings.
    summary.machines_failed = machines_failed_;
    summary.machines_restarted = machines_restarted_;
    summary.machines_down_end = supervisor_.roster().down();
    summary.worst_failover_latency_s = worst_failover_latency_s_;
    summary.degraded_barriers = supervisor_.degraded_barriers();
    summary.cluster_invariant_violations = checker_.violations();
    summary.cluster_invariant_violations_total = checker_.total_violations();

    summary.recording.meta.app = "cluster";
    summary.recording.meta.be = request_.policy;
    summary.recording.meta.controller = ControllerKindName(request_.controller);
    summary.recording.meta.seed = request_.seed;
    summary.recording.meta.controller_period_s = epoch_span_s_;
    summary.recording.events = std::move(events_);
    summary.recording.events_total = summary.recording.events.size();
    return summary;
  }

 private:
  struct GroupSlot {
    RunRequest trial_request;
    std::unique_ptr<Trial> trial;
    size_t outcome = 0;   // into outcomes_ — the live incarnation.
    double start_s = 0.0;  // epoch-local start of the live incarnation.
    int incarnations = 0;  // replacements started this epoch.
    std::exception_ptr error;
  };

  void BeginEpoch(int epoch, size_t& next) {
    supervisor_.roster().ReleaseAll();
    epoch_disrupted_ = 0;
    epoch_failed_over_ = 0;
    epoch_lost_ = 0;
    const size_t last_epoch_begin = epoch_outcomes_begin_;
    epoch_outcomes_begin_ = outcomes_.size();
    for (GroupSlot& slot : slots_) {
      slot.trial.reset();  // the old trial references the old request.
      slot.incarnations = 0;
      slot.start_s = 0.0;
    }

    // Losses/rejoins quantized to this epoch's start enact before placement,
    // so the policy's epoch never lands groups on machines already gone.
    EnactTransitions(epoch, 0.0, next);

    const double now_s = epoch * epoch_span_s_;
    const double scale = EpochLoadScale(request_, epoch);

    const ClusterView view = EpochView(request_.spec, epoch, scale, model_of_);
    events_.push_back(PlacementEvent(now_s, ObsPlacementOp::kEpochBegin, -1,
                                     epoch, scale, 0.0, 0.0));

    // Degraded mode suspends BE cluster-wide by forcing every placement solo.
    outcomes_.resize(epoch_outcomes_begin_ + view.pending.size());
    for (const GroupPlacement& placement :
         PlaceGroups(*policy_, view, supervisor_.roster(),
                     supervisor_.degraded())) {
      const PendingGroup& group = view.pending[placement.group];
      GroupOutcome& outcome = outcomes_[epoch_outcomes_begin_ + placement.group];
      outcome.epoch = epoch;
      outcome.group = group.group;
      outcome.app = group.app;
      outcome.be = placement.be;
      outcome.run_solo = placement.run_solo;
      outcome.pods = group.pods;
      outcome.load = group.load;
      outcome.score = placement.score;
      outcome.first_machine = placement.first_machine;
      outcome.placed = placement.first_machine >= 0;
      const ObsPlacementOp op = !outcome.placed ? ObsPlacementOp::kGroupUnplaced
                                : outcome.run_solo ? ObsPlacementOp::kGroupSolo
                                                   : ObsPlacementOp::kGroupPlaced;
      const uint8_t detail = op == ObsPlacementOp::kGroupPlaced
                                 ? static_cast<uint8_t>(placement.be)
                                 : uint8_t{0};
      events_.push_back(PlacementEvent(now_s, op, outcome.first_machine,
                                       group.group, group.pods, placement.score,
                                       group.load, detail));
    }

    // Churn: any group whose effective assignment changed since last epoch.
    // Each epoch's placement is the first entries from its begin index.
    for (size_t g = 0; epoch > 0 && g < view.pending.size(); ++g) {
      const GroupOutcome& now = outcomes_[epoch_outcomes_begin_ + g];
      if (!SameAssignment(outcomes_[last_epoch_begin + g], now)) {
        events_.push_back(PlacementEvent(
            now_s, ObsPlacementOp::kChurn, now.first_machine, now.group,
            now.pods, now.score, now.load,
            now.placed && !now.run_solo ? static_cast<uint8_t>(now.be)
                                        : uint8_t{0}));
      }
    }

    // Build this epoch's trials serially in slot order, so validation
    // errors surface lowest slot first — the flat runner's first-error
    // order.
    for (int g = 0; g < groups_per_epoch_; ++g) {
      const size_t index = epoch_outcomes_begin_ + static_cast<size_t>(g);
      const GroupOutcome& outcome = outcomes_[index];
      if (!outcome.placed) {
        continue;
      }
      StartTrial(slots_[static_cast<size_t>(g)], index, 0.0,
                 TrialRequest(request_, outcome, groups_per_epoch_, model_of_));
    }
  }

  // Points `slot` at outcomes_[outcome] and starts its trial at the
  // epoch-local `start_s`.
  void StartTrial(GroupSlot& slot, size_t outcome, double start_s,
                  RunRequest request) {
    slot.outcome = outcome;
    slot.start_s = start_s;
    slot.trial_request = std::move(request);
    slot.trial = std::make_unique<Trial>(slot.trial_request);
    slot.trial->Start();
  }

  // Advances every live trial from `from` to `to` (epoch-local) in
  // conservative windows. When `suppress_final` is set, `to` is a machine-
  // loss barrier: the last window's snapshot is deferred until after the
  // enactment (EnactBarrier emits it), so hooks never observe a half-applied
  // barrier; errors are still swept there.
  void AdvanceSegment(int epoch, double from, double to, bool suppress_final) {
    std::vector<ShardUnit> units;
    units.reserve(slots_.size());
    for (int g = 0; g < groups_per_epoch_; ++g) {
      GroupSlot& slot = slots_[static_cast<size_t>(g)];
      if (slot.trial == nullptr) {
        continue;
      }
      const GroupOutcome& outcome = outcomes_[slot.outcome];
      ShardUnit unit;
      unit.slot = g;
      unit.weight = static_cast<double>(outcome.pods);
      Trial* trial = slot.trial.get();
      GroupSlot* home = &slot;
      const double start_s = slot.start_s;
      // Captures copies and slot pointers only: outcomes_ grows when
      // failovers start, so no reference into it may outlive this scope.
      unit.advance = [trial, home, start_s](double end_time) {
        if (home->error != nullptr) {
          return;  // failed earlier; hold the island at its failure point.
        }
        try {
          trial->AdvanceTo(end_time - start_s);
        } catch (...) {
          home->error = std::current_exception();
        }
      };
      units.push_back(std::move(unit));
    }

    engine_->Advance(
        units, from, to, MachineAgent::kPeriodSeconds,
        [&](double window_end) {
          CheckErrors();
          if (suppress_final && window_end == to) {
            return;
          }
          AtBarrier(epoch, window_end);
        });
  }

  // First-error propagation, lowest slot first, checked while every shard
  // rests at the barrier.
  void CheckErrors() {
    for (GroupSlot& slot : slots_) {
      if (slot.error != nullptr) {
        std::rethrow_exception(slot.error);
      }
    }
  }

  // Enacts every transition quantized to (epoch, window_s). Fills
  // `newly_lost` with (machine, scheduled_s) of losses that took effect at
  // this call — the victim-detection set — and accumulates the snapshot's
  // lost/rejoined lists.
  void EnactTransitions(int epoch, double window_s, size_t& next,
                        std::vector<std::pair<int, double>>* newly_lost =
                            nullptr) {
    const double cluster_t = epoch * epoch_span_s_ + window_s;
    bool any = false;
    while (next < transitions_.size() &&
           transitions_[next].epoch == epoch &&
           transitions_[next].window_s == window_s) {
      const MachineTransition& transition = transitions_[next++];
      MachineRoster& roster = supervisor_.roster();
      if (transition.rejoin) {
        // A rejoin enacts only when its own loss transition took effect —
        // a restart whose loss found the machine already dead degrades to a
        // no-op in full, keeping overlapping schedules deterministic.
        if (loss_owner_[static_cast<size_t>(transition.machine)] ==
                transition.event_id &&
            roster.MarkUp(transition.machine)) {
          loss_owner_[static_cast<size_t>(transition.machine)] = -1;
          ++machines_restarted_;
          rejoined_pending_.push_back(transition.machine);
          checker_.OnRejoinEnacted(cluster_t, transition.machine);
          events_.push_back(PlacementEvent(cluster_t,
                                           ObsPlacementOp::kMachineUp,
                                           transition.machine,
                                           transition.scheduled_s, 0.0, 0.0,
                                           0.0));
          any = true;
        }
      } else if (roster.MarkDown(transition.machine)) {
        loss_owner_[static_cast<size_t>(transition.machine)] =
            transition.event_id;
        ++machines_failed_;
        lost_pending_.push_back(transition.machine);
        if (newly_lost != nullptr) {
          newly_lost->emplace_back(transition.machine, transition.scheduled_s);
        }
        worst_failover_latency_s_ = std::max(
            worst_failover_latency_s_, cluster_t - transition.scheduled_s);
        checker_.OnLossEnacted(cluster_t, transition.machine,
                               transition.scheduled_s);
        events_.push_back(PlacementEvent(cluster_t,
                                         ObsPlacementOp::kMachineDown,
                                         transition.machine,
                                         transition.scheduled_s,
                                         transition.downtime_s, 0.0, 0.0));
        any = true;
      }
    }
    if (any) {
      MaybeEmitDegraded(cluster_t);
    }
  }

  void MaybeEmitDegraded(double time_s) {
    const bool degraded = supervisor_.degraded();
    if (degraded == was_degraded_) {
      return;
    }
    was_degraded_ = degraded;
    const MachineRoster& roster = supervisor_.roster();
    events_.push_back(PlacementEvent(
        time_s, ObsPlacementOp::kDegraded, -1,
        static_cast<double>(roster.down()),
        static_cast<double>(roster.down()) / roster.machines(), 0.0, 0.0,
        degraded ? uint8_t{1} : uint8_t{0}));
  }

  // A mid-epoch machine-loss barrier: enact the liveness edges, kill and
  // harvest the victims, run supervisor failover, then emit the deferred
  // barrier snapshot over the settled cluster.
  void EnactBarrier(int epoch, double window_s, size_t& next) {
    const double cluster_t = epoch * epoch_span_s_ + window_s;
    std::vector<std::pair<int, double>> newly_lost;
    EnactTransitions(epoch, window_s, next, &newly_lost);

    // Victims: live groups whose machine range took a hit at THIS barrier.
    // Machines that were already dead killed their groups when they died.
    std::vector<int> victim_slots;
    std::vector<double> victim_latency;
    for (int g = 0; g < groups_per_epoch_; ++g) {
      GroupSlot& slot = slots_[static_cast<size_t>(g)];
      if (slot.trial == nullptr) {
        continue;
      }
      const GroupOutcome& outcome = outcomes_[slot.outcome];
      double earliest = std::numeric_limits<double>::infinity();
      for (const auto& [machine, scheduled_s] : newly_lost) {
        if (machine >= outcome.first_machine &&
            machine < outcome.first_machine + outcome.pods) {
          earliest = std::min(earliest, scheduled_s);
        }
      }
      if (!std::isinf(earliest)) {
        victim_slots.push_back(g);
        victim_latency.push_back(cluster_t - earliest);
      }
    }

    // Kill: harvest what the victim served, free its surviving machines.
    for (int g : victim_slots) {
      GroupSlot& slot = slots_[static_cast<size_t>(g)];
      GroupOutcome& outcome = outcomes_[slot.outcome];
      outcome.summary = slot.trial->Harvest();
      outcome.disrupted = true;
      outcome.served_measure_s =
          std::clamp(window_s - slot.start_s - slot.trial_request.warmup_s,
                     0.0, slot.trial_request.measure_s);
      slot.trial.reset();
      supervisor_.roster().Release(outcome.first_machine, outcome.pods);
      ++epoch_disrupted_;
    }

    if (!victim_slots.empty()) {
      Failover(epoch, window_s, cluster_t, victim_slots, victim_latency);
    }

    AtBarrier(epoch, window_s);
  }

  void Failover(int epoch, double window_s, double cluster_t,
                const std::vector<int>& victim_slots,
                const std::vector<double>& victim_latency) {
    // Victim view, renumbered 0..n-1 in victim order (placements index
    // victim_slots and victim_latency); the quota re-offers each victim's
    // epoch BE assignment.
    ClusterView victims;
    victims.spec = &request_.spec;
    victims.epoch = epoch;
    victims.load_scale = EpochLoadScale(request_, epoch);
    victims.model = model_of_;
    for (int g : victim_slots) {
      const GroupOutcome& dead = outcomes_[slots_[static_cast<size_t>(g)].outcome];
      PendingGroup pending;
      pending.group = static_cast<int>(victims.pending.size());
      pending.app = dead.app;
      pending.load = dead.load;
      pending.pods = dead.pods;
      victims.pending.push_back(pending);
      victims.be_quota.push_back(dead.be);
    }

    for (const GroupPlacement& placement :
         supervisor_.PlanFailover(*policy_, victims)) {
      GroupSlot& slot =
          slots_[static_cast<size_t>(victim_slots[placement.group])];
      const GroupOutcome dead = outcomes_[slot.outcome];  // copy: vector grows.
      if (placement.first_machine < 0) {
        ++epoch_lost_;
        events_.push_back(PlacementEvent(cluster_t, ObsPlacementOp::kGroupDown,
                                         dead.first_machine, dead.group,
                                         dead.pods, 0.0, 0.0));
        continue;
      }

      const int incarnation = ++slot.incarnations;
      GroupOutcome replacement;
      replacement.epoch = epoch;
      replacement.group = dead.group;
      replacement.app = dead.app;
      replacement.be = placement.be;
      replacement.placed = true;
      replacement.run_solo = placement.run_solo;
      replacement.first_machine = placement.first_machine;
      replacement.pods = dead.pods;
      replacement.load = dead.load;
      replacement.score = placement.score;
      replacement.incarnation = incarnation;
      replacement.start_s = window_s;
      ++epoch_failed_over_;

      events_.push_back(PlacementEvent(
          cluster_t, ObsPlacementOp::kFailover, placement.first_machine,
          dead.group, dead.pods, incarnation,
          victim_latency[static_cast<size_t>(placement.group)],
          placement.run_solo ? uint8_t{0}
                             : static_cast<uint8_t>(placement.be)));

      outcomes_.push_back(replacement);
      StartTrial(slot, outcomes_.size() - 1, window_s,
                 FailoverTrialRequest(replacement, window_s, incarnation));
    }
  }

  // A replacement trial re-warms inside what is left of the epoch: warmup is
  // the request's, shrunk so at least half the remaining span measures, and
  // BE re-admission backs off under a kBeAdmissionHold window per pod.
  RunRequest FailoverTrialRequest(const GroupOutcome& replacement,
                                  double start_s, int incarnation) {
    RunRequest trial =
        TrialRequest(request_, replacement, groups_per_epoch_, model_of_);
    const double remaining = epoch_span_s_ - start_s;
    trial.warmup_s = std::min(request_.warmup_s, 0.5 * remaining);
    trial.measure_s = remaining - trial.warmup_s;
    trial.seed = DeriveFailoverSeed(request_.seed, replacement.epoch,
                                    groups_per_epoch_, replacement.group,
                                    incarnation);
    trial.label += "/f" + std::to_string(incarnation);
    if (!replacement.run_solo &&
        request_.supervisor.readmission_backoff_s > 0.0) {
      auto holds = std::make_shared<FaultSchedule>();
      for (int pod = 0; pod < replacement.pods; ++pod) {
        FaultEvent hold;
        hold.kind = FaultKind::kBeAdmissionHold;
        hold.pod = pod;
        hold.start_s = 0.0;
        hold.duration_s = request_.supervisor.readmission_backoff_s;
        holds->Add(hold);
      }
      trial.faults = std::move(holds);
    }
    return trial;
  }

  // Every settled barrier: assemble the slot-order-merged snapshot, audit
  // assignments against the shadow liveness, account the supervisor's
  // degraded time, and fire the user hook.
  void AtBarrier(int epoch, double window_end) {
    ClusterTickSnapshot snap;
    snap.time_s = epoch * epoch_span_s_ + window_end;
    snap.epoch = epoch;
    snap.window_end_s = window_end;
    snap.window = engine_->windows_run();
    for (const GroupSlot& slot : slots_) {  // slot-order merge.
      if (slot.trial == nullptr) {
        continue;
      }
      const Deployment& deployment = slot.trial->deployment();
      ++snap.groups_running;
      snap.sla_violations += deployment.TotalSlaViolations();
      snap.be_kills += deployment.TotalBeKills();
      snap.slack_violation_ticks += deployment.slack_violation_ticks();
      snap.crashes += deployment.crash_count();
    }
    const MachineRoster& roster = supervisor_.roster();
    snap.machines_total = roster.machines();
    snap.machines_alive = roster.alive();
    snap.machines_down = roster.down();
    snap.lost_machines = std::move(lost_pending_);
    lost_pending_.clear();
    snap.rejoined_machines = std::move(rejoined_pending_);
    rejoined_pending_.clear();
    snap.groups_down = epoch_disrupted_ - epoch_failed_over_;
    snap.degraded = supervisor_.degraded();

    if (checker_.armed()) {
      std::vector<std::pair<int, int>> live_ranges;
      for (const GroupSlot& slot : slots_) {
        if (slot.trial == nullptr) {
          continue;
        }
        const GroupOutcome& outcome = outcomes_[slot.outcome];
        live_ranges.emplace_back(outcome.first_machine, outcome.pods);
      }
      checker_.CheckAssignments(snap.time_s, live_ranges);
    }
    supervisor_.ObserveBarrier();
    if (request_.on_tick) {
      request_.on_tick(snap);
    }
  }

  void HarvestEpoch(int epoch) {
    // Harvest in slot order. Trials stay alive until the next epoch rebuilds
    // them; the last epoch's die with `slots_`.
    for (GroupSlot& slot : slots_) {
      if (slot.trial == nullptr) {
        continue;
      }
      GroupOutcome& outcome = outcomes_[slot.outcome];
      outcome.summary = slot.trial->Finish();
      outcome.served_measure_s = slot.trial_request.measure_s;
    }

    checker_.CheckConservation((epoch + 1) * epoch_span_s_, epoch,
                               epoch_disrupted_, epoch_failed_over_,
                               epoch_lost_);
  }

  const ClusterRunRequest& request_;
  const int groups_per_epoch_;
  const double epoch_span_s_;

  std::map<LcAppKind, AppPlacementModel> models_;
  std::function<const AppPlacementModel&(LcAppKind)> model_of_;
  std::unique_ptr<PlacementPolicy> policy_;
  ClusterSupervisor supervisor_;
  ClusterInvariantChecker checker_;
  std::vector<MachineTransition> transitions_;
  std::vector<int> loss_owner_;  // event_id whose loss holds the machine.

  ShardedEngine* engine_ = nullptr;
  std::vector<GroupSlot> slots_;  // fixed size: slot pointers stay valid.
  std::vector<GroupOutcome> outcomes_;
  std::vector<ObsEvent> events_;

  // Failure-domain accounting the outcomes do not record, and the per-epoch
  // counters the fail.conserve invariant and the tick snapshot read.
  int machines_failed_ = 0;
  int machines_restarted_ = 0;
  double worst_failover_latency_s_ = 0.0;
  int epoch_disrupted_ = 0;
  int epoch_failed_over_ = 0;
  int epoch_lost_ = 0;
  size_t epoch_outcomes_begin_ = 0;
  bool was_degraded_ = false;
  std::vector<int> lost_pending_;      // since the last emitted snapshot.
  std::vector<int> rejoined_pending_;
};

}  // namespace

uint64_t DeriveGroupSeed(uint64_t base_seed, int epoch, int groups_per_epoch,
                         int group) {
  return DeriveTrialSeed(base_seed,
                         static_cast<uint64_t>(epoch) *
                                 static_cast<uint64_t>(groups_per_epoch) +
                             static_cast<uint64_t>(group));
}

uint64_t DeriveShardSeed(uint64_t base_seed, uint64_t slot) {
  // The salt (SplitMix64's first mixing multiplier; any fixed odd constant
  // works) moves the base into a family the unsalted trial/group streams
  // never draw from.
  return DeriveTrialSeed(base_seed ^ 0xbf58476d1ce4e5b9ULL, slot);
}

uint64_t DeriveFailoverSeed(uint64_t base_seed, int epoch, int groups_per_epoch,
                            int group, int incarnation) {
  // Salted with SplitMix64's second mixing multiplier — a third stream
  // family, disjoint from trial/group (unsalted) and shard (first-multiplier)
  // streams. 1024 incarnations per flat index is far beyond what one epoch's
  // barriers could start.
  const uint64_t flat = static_cast<uint64_t>(epoch) *
                            static_cast<uint64_t>(groups_per_epoch) +
                        static_cast<uint64_t>(group);
  return DeriveTrialSeed(base_seed ^ 0x94d049bb133111ebULL,
                         flat * 1024 + static_cast<uint64_t>(incarnation));
}

ClusterSummary RunCluster(const ClusterRunRequest& request,
                          const RunnerOptions& options) {
  ValidateRequest(request);
  // Each epoch runs its placed groups concurrently between conservative-window
  // barriers. Shard count is a performance knob only — summaries are
  // bit-identical at any value — so the pool never outnumbers the groups.
  const int shards =
      options.shards > 0 ? options.shards : DefaultShardCount(options.jobs);
  ShardPool pool(std::min(shards, request.spec.TotalGroups()));
  ShardedEngine engine(&pool);
  RequestExecution execution(request);
  execution.Run(engine);
  ClusterSummary summary = execution.Summarize();
  ExportRecording(summary.recording, request.obs);
  return summary;
}

ClusterSummary RollupCluster(const ClusterRunRequest& request,
                             std::vector<GroupOutcome> outcomes) {
  // Failover incarnations are appended as they start; present them
  // epoch-major with each group's incarnations together.
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const GroupOutcome& a, const GroupOutcome& b) {
                     if (a.epoch != b.epoch) {
                       return a.epoch < b.epoch;
                     }
                     if (a.group != b.group) {
                       return a.group < b.group;
                     }
                     return a.incarnation < b.incarnation;
                   });

  ClusterSummary summary;
  summary.policy = request.policy;
  summary.label = request.label;
  summary.machines = request.spec.machines;
  summary.epochs = request.epochs;
  summary.groups_total = request.spec.TotalGroups() * request.epochs;

  const double machines = static_cast<double>(request.spec.machines);
  std::map<LcAppKind, size_t> app_index;
  std::vector<double> app_weight;     // served-fraction sums, per app entry.
  std::vector<double> app_pod_ticks;  // pods * served / period, per app.
  double placed_pod_ticks = 0.0;
  // Per group, its latest epoch placement (incarnation 0) so far.
  std::map<int, const GroupOutcome*> last_placement;

  for (const GroupOutcome& outcome : outcomes) {
    if (outcome.incarnation == 0) {
      if (!outcome.placed) {
        ++summary.groups_unplaced;
      } else {
        ++summary.groups_placed;
        if (outcome.run_solo) {
          ++summary.solo_groups;
        }
      }
      auto [was, first] = last_placement.try_emplace(outcome.group, &outcome);
      if (!first) {
        if (was->second->epoch + 1 == outcome.epoch &&
            !SameAssignment(*was->second, outcome)) {
          ++summary.placement_churn;
        }
        was->second = &outcome;
      }
    } else {
      ++summary.groups_failed_over;
      summary.pods_migrated += outcome.pods;
    }
    if (outcome.disrupted) {
      ++summary.groups_disrupted;
    }

    auto it = app_index.find(outcome.app);
    if (it == app_index.end()) {
      it = app_index.emplace(outcome.app, summary.per_app.size()).first;
      summary.per_app.push_back(AppClusterStats{});
      summary.per_app.back().app = outcome.app;
      app_weight.push_back(0.0);
      app_pod_ticks.push_back(0.0);
    }
    AppClusterStats& app = summary.per_app[it->second];
    if (!outcome.placed) {
      ++app.unplaced;
      continue;
    }
    summary.machines_used =
        std::max(summary.machines_used, outcome.first_machine + outcome.pods);

    // A disrupted incarnation only served part of the epoch's measurement
    // window; weight its rates by the served fraction. Undisrupted epoch
    // placements carry served == measure_s, so the fraction is exactly 1.0
    // and fault-free arithmetic is bit-identical to the pre-failure-domain
    // rollup.
    const double fraction = outcome.served_measure_s / request.measure_s;
    const double weight = fraction * (outcome.pods / machines);
    summary.emu += weight * outcome.summary.emu;
    summary.lc_throughput += weight * outcome.summary.lc_throughput;
    summary.be_throughput += weight * outcome.summary.be_throughput;
    summary.cpu_util += weight * outcome.summary.cpu_util;
    summary.membw_util += weight * outcome.summary.membw_util;
    summary.sla_violations += outcome.summary.sla_violations;
    summary.be_kills += outcome.summary.be_kills;
    summary.worst_tail_ratio =
        std::max(summary.worst_tail_ratio, outcome.summary.worst_tail_ratio);
    const double pod_ticks =
        outcome.pods * outcome.served_measure_s / MachineAgent::kPeriodSeconds;
    placed_pod_ticks += pod_ticks;
    app_pod_ticks[it->second] += pod_ticks;

    ++app.trials;
    app_weight[it->second] += fraction;
    app.emu += fraction * outcome.summary.emu;
    app.lc_throughput += fraction * outcome.summary.lc_throughput;
    app.sla_violations += outcome.summary.sla_violations;
    app.worst_tail_ratio =
        std::max(app.worst_tail_ratio, outcome.summary.worst_tail_ratio);
  }

  // Machine-normalized quantities are per-epoch averages.
  const double epochs = static_cast<double>(request.epochs);
  summary.emu /= epochs;
  summary.lc_throughput /= epochs;
  summary.be_throughput /= epochs;
  summary.cpu_util /= epochs;
  summary.membw_util /= epochs;

  if (placed_pod_ticks > 0.0) {
    summary.slo_violation_rate =
        static_cast<double>(summary.sla_violations) / placed_pod_ticks;
  }
  for (size_t a = 0; a < summary.per_app.size(); ++a) {
    AppClusterStats& app = summary.per_app[a];
    if (app_weight[a] > 0.0) {
      app.emu /= app_weight[a];
      app.lc_throughput /= app_weight[a];
    }
    if (app_pod_ticks[a] > 0.0) {
      app.slo_violation_rate =
          static_cast<double>(app.sla_violations) / app_pod_ticks[a];
    }
  }

  // Failover places exactly one replacement or loses the group, per victim.
  summary.groups_lost = summary.groups_disrupted - summary.groups_failed_over;
  // Demanded measurement seconds lost to machine loss: per disrupted
  // group-epoch, the measure window minus every incarnation's served share,
  // floored at zero (replacement windows can overlap the demand).
  for (size_t begin = 0, end = 0; begin < outcomes.size(); begin = end) {
    double served = 0.0;
    bool disrupted = false;
    for (end = begin; end < outcomes.size() &&
                      outcomes[end].epoch == outcomes[begin].epoch &&
                      outcomes[end].group == outcomes[begin].group;
         ++end) {
      served += outcomes[end].served_measure_s;
      disrupted = disrupted || outcomes[end].disrupted;
    }
    if (disrupted) {
      summary.down_group_seconds += std::max(0.0, request.measure_s - served);
    }
  }

  summary.groups = std::move(outcomes);
  return summary;
}

}  // namespace rhythm

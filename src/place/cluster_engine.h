// Cluster-level execution: ClusterRunRequest describes one policy evaluated
// against one ClusterSpec (the same declarative value-type idiom as
// RunRequest), RunCluster executes it, and RollupCluster turns the run's
// group outcomes into ClusterSummary, the Fig. 12/15-style rollup — cluster
// EMU, per-app SLO violation rates, placement churn.
//
// Execution model: placement is computed serially (a pure function of
// spec x policy x seed x epoch), then each epoch's placed groups run
// *concurrently inside the trial* on the partitioned cluster engine
// (src/sim/sharded_engine.h): every group is a simulation island pinned to a
// logical slot, islands are weight-balanced across RunnerOptions::shards
// worker shards, and all of them advance in lockstep conservative time
// windows aligned to the controller tick, with a full barrier between
// windows. Because every island's RNG stream and trial seed derive from its
// logical slot (DeriveGroupSeed / DeriveShardSeed) — never from the physical
// shard — and barrier merges run in slot order, results are bit-identical at
// any shard count, including 1. Placement decisions are emitted as
// ObsKind::kPlacement events into a Recording auditable with
// tools/obs_query; barrier snapshots feed the optional ClusterTickHook.

#ifndef RHYTHM_SRC_PLACE_CLUSTER_ENGINE_H_
#define RHYTHM_SRC_PLACE_CLUSTER_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/control/cluster_supervisor.h"
#include "src/control/cluster_tick.h"
#include "src/place/cluster_spec.h"
#include "src/place/placement_policy.h"
#include "src/runner/runner.h"

namespace rhythm {

// One cluster evaluation: `policy` placing `spec` for `epochs` placement
// rounds, every placed group simulated as a Deployment trial.
struct ClusterRunRequest {
  ClusterSpec spec;
  std::string policy = kPolicyRhythmAware;
  ControllerKind controller = ControllerKind::kRhythm;
  ControlHardening hardening;
  uint64_t seed = 11;
  // Per-group trial windows (shorter than RunRequest defaults: a cluster run
  // multiplies them by groups x epochs).
  double warmup_s = 10.0;
  double measure_s = 60.0;
  // Placement rounds. Each epoch re-places the cluster and re-runs every
  // group; churn counts assignment changes between consecutive epochs.
  int epochs = 1;
  // Optional per-epoch load multiplier (diurnal ramp); entry e scales every
  // group's offered load in epoch e (clamped to [0, 1]). Missing entries
  // default to 1. Policies see the scaled loads.
  std::vector<double> epoch_load_scale;
  // Scoring-model source for the policies. Null uses DefaultPlacementModel
  // (catalog sensitivities + cached thresholds — derives thresholds once per
  // app). Tests inject cheap stubs here.
  std::function<AppPlacementModel(LcAppKind)> model_provider;
  // Invariant monitoring forwarded to every group trial.
  InvariantOptions verify;
  // Placement observability. When enabled, the placement event stream is
  // collected into ClusterSummary::recording and written to any export paths
  // named here. Group trials themselves run unobserved (their summaries
  // carry the metrics).
  ObsOptions obs;
  // Cluster-scope fault schedule (failure domains, DESIGN.md §14). Only
  // kMachineFailure / kMachineRestart events are accepted — FaultEvent::pod
  // is a *machine index* into the spec's roster, validated against
  // spec.machines. Losses are enacted at the first barrier at/after start_s
  // (epoch starts count as barriers); victims' trials are killed and, with
  // the supervisor enabled, failed over. Per-deployment fault kinds are
  // rejected here: they belong on individual RunRequests.
  std::shared_ptr<const FaultSchedule> faults;
  // Barrier-driven failover (src/control/cluster_supervisor.h). Disabled by
  // default: losses then simply take their groups down for the epoch.
  SupervisorOptions supervisor;
  // Top-controller seam: fired on the coordinating thread after every
  // conservative-window barrier with a slot-order-merged snapshot of the
  // running groups. Must be read-only; see src/control/cluster_tick.h.
  ClusterTickHook on_tick;
  std::string label;
};

// What happened to one incarnation of one group in one epoch. Unplaced
// groups carry a default-constructed summary (their demand went unserved).
// Machine loss can split a group-epoch into several incarnations: the epoch
// placement (incarnation 0), then one entry per failover replacement.
// ClusterSummary::groups is sorted by (epoch, group, incarnation).
struct GroupOutcome {
  int epoch = 0;
  int group = 0;
  LcAppKind app = LcAppKind::kEcommerce;
  BeJobKind be = BeJobKind::kCpuStress;
  bool placed = false;
  bool run_solo = false;
  int first_machine = -1;
  int pods = 0;
  double load = 0.0;   // offered load after the epoch scale.
  double score = 0.0;  // the policy's predicted-interference score.
  // -- Failure domains --
  int incarnation = 0;    // 0: epoch placement; n: n-th failover replacement.
  double start_s = 0.0;   // epoch-local start (failovers start mid-epoch).
  // Seconds of the epoch's measurement window this incarnation served; the
  // rollup weights its rates by served_measure_s / measure_s. Exactly
  // measure_s for an undisrupted epoch placement.
  double served_measure_s = 0.0;
  bool disrupted = false;  // killed by machine loss before the epoch ended.
  RunSummary summary;
};

// Per-application rollup across every epoch (placed trials only).
struct AppClusterStats {
  LcAppKind app = LcAppKind::kEcommerce;
  int trials = 0;               // placed group-trials.
  int unplaced = 0;             // group-epochs that went unserved.
  double emu = 0.0;             // mean group EMU.
  double lc_throughput = 0.0;   // mean group LC throughput.
  uint64_t sla_violations = 0;  // summed controller SLO breaches.
  double slo_violation_rate = 0.0;  // violations / controller ticks.
  double worst_tail_ratio = 0.0;    // max over trials.
};

// The cluster-level metrics of one ClusterRunRequest. Machine-normalized
// quantities (emu, throughputs, utilizations) divide by spec.machines and
// average over epochs, so idle machines and unplaced groups count as zero —
// a policy that fails to place demand pays for it.
struct ClusterSummary {
  std::string policy;
  std::string label;
  int machines = 0;
  int machines_used = 0;  // max machines occupied in any epoch.
  int epochs = 0;
  int groups_total = 0;     // group-epochs demanded (groups x epochs).
  int groups_placed = 0;    // group-epochs that landed.
  int groups_unplaced = 0;  // group-epochs sacrificed for lack of machines.
  int solo_groups = 0;      // placed group-epochs that ran BE-free.

  double emu = 0.0;            // cluster EMU (the paper's §5.1 metric).
  double lc_throughput = 0.0;  // machine-normalized LC throughput.
  double be_throughput = 0.0;  // machine-normalized BE throughput.
  double cpu_util = 0.0;
  double membw_util = 0.0;
  uint64_t sla_violations = 0;
  uint64_t be_kills = 0;
  // Violations per controller tick across placed trials: sla_violations /
  // (placed trials x measure_s / MachineAgent::kPeriodSeconds).
  double slo_violation_rate = 0.0;
  double worst_tail_ratio = 0.0;
  // Groups whose assignment (BE kind, solo flag or placed-ness) changed
  // between consecutive epochs, summed; 0 for single-epoch runs.
  int placement_churn = 0;

  // -- Failure domains (all zero when the request schedules no machine
  // faults; DESIGN.md §14) --
  int machines_failed = 0;      // loss transitions enacted.
  int machines_restarted = 0;   // rejoin transitions enacted.
  int machines_down_end = 0;    // still dead when the run ended.
  int groups_disrupted = 0;     // incarnations killed by machine loss.
  int groups_failed_over = 0;   // replacement incarnations started.
  int groups_lost = 0;          // disruptions nothing replaced (budget,
                                // capacity, or supervisor disabled).
  int pods_migrated = 0;        // machines allocated to replacements.
  // Group-seconds of demanded measurement time that went unserved because of
  // machine loss (per disrupted group-epoch: measure_s minus every
  // incarnation's served seconds, floored at zero).
  double down_group_seconds = 0.0;
  // Worst loss-to-enactment latency (barrier time minus the schedule's
  // start_s) — bounded by the "fail.latency" invariant.
  double worst_failover_latency_s = 0.0;
  int degraded_barriers = 0;    // barriers spent in degraded mode.
  // Cluster-scope invariant findings (src/verify/cluster_invariants.h),
  // populated when the request's verify mode is kCollect. Distinct from the
  // per-trial violations inside each GroupOutcome::summary.
  std::vector<InvariantViolation> cluster_invariant_violations;
  uint64_t cluster_invariant_violations_total = 0;

  std::vector<AppClusterStats> per_app;  // ordered by first appearance.
  // Sorted by (epoch, group, incarnation) — epoch-major with failover
  // incarnations interleaved after their group's epoch placement.
  std::vector<GroupOutcome> groups;
  // Placement event stream (ObsKind::kPlacement), meta.app = "cluster",
  // meta.be = policy. Always populated; exported when the request's
  // ObsOptions name paths.
  Recording recording;
};

// Seed for `group`'s trial in `epoch`: DeriveTrialSeed over the flattened
// epoch-major index, so a group's trial is reproducible standalone with
// plain Run() given the same derived seed.
uint64_t DeriveGroupSeed(uint64_t base_seed, int epoch, int groups_per_epoch,
                         int group);

// Seed for slot-local engine streams (synthetic spec generation, per-slot
// jitter sources): a stream family separated from DeriveTrialSeed /
// DeriveGroupSeed by salting the base seed before derivation, so engine-side
// draws can never collide with a trial's stream. Keyed by logical slot,
// never by physical shard — any RHYTHM_SHARDS value sees identical streams.
uint64_t DeriveShardSeed(uint64_t base_seed, uint64_t slot);

// Seed for a failover replacement trial: a third stream family (salted like
// DeriveShardSeed but with SplitMix64's second mixing multiplier), keyed by
// the flat group-epoch index and the incarnation number — so replacement
// trials never share a stream with epoch placements, shard streams, or each
// other, and a replacement is reproducible standalone with plain Run().
uint64_t DeriveFailoverSeed(uint64_t base_seed, int epoch, int groups_per_epoch,
                            int group, int incarnation);

// Executes one cluster request on its own shard pool sized by
// RunnerOptions::shards (<= 0: RHYTHM_SHARDS, then the jobs resolution) —
// bit-identical at any shard count — and writes the placement recording to
// the export paths request.obs names (std::runtime_error when one cannot be
// written). Malformed requests (unknown policy, empty demand, non-positive
// windows or epochs, policy decisions that skip a group or overdraw the BE
// quota) throw std::invalid_argument; trial errors propagate lowest slot
// first, matching the flat runner's first-error contract.
ClusterSummary RunCluster(const ClusterRunRequest& request,
                          const RunnerOptions& options = {});

// The part of ClusterSummary that is a function of the group outcomes alone:
// placed/unplaced/solo counts, the machine-normalized rates, per_app,
// machines_used, placement churn and the failover tallies (groups_disrupted,
// groups_failed_over, groups_lost, pods_migrated, down_group_seconds).
// Sorts `outcomes` by (epoch, group, incarnation) into ClusterSummary::groups.
// The fields only the engine observes (machines failed/restarted/down,
// failover latency, degraded barriers, cluster invariants, the recording)
// stay default.
ClusterSummary RollupCluster(const ClusterRunRequest& request,
                             std::vector<GroupOutcome> outcomes);

}  // namespace rhythm

#endif  // RHYTHM_SRC_PLACE_CLUSTER_ENGINE_H_

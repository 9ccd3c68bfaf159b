// The cluster engine: seed derivation, bit-identical summaries at any
// worker count for a mixed-policy plan, placement ObsEvents (including the
// JSONL round trip obs_query relies on), churn accounting across epochs,
// and request validation.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/exporters.h"
#include "src/place/cluster_engine.h"

namespace rhythm {
namespace {

// Cheap stub model (no threshold derivation): catalog sensitivities with
// permissive fixed thresholds so BEs actually run.
AppPlacementModel StubModel(LcAppKind app) {
  const AppSpec spec = MakeApp(app);
  AppPlacementModel model;
  model.app = app;
  for (size_t pod = 0; pod < spec.components.size(); ++pod) {
    PodPlacementModel entry;
    entry.name = spec.components[pod].name;
    entry.sensitivity = spec.components[pod].sensitivity;
    entry.thresholds = ServpodThresholds{0.8 - 0.05 * pod, 0.10 + 0.02 * pod};
    entry.contribution = 1.0;
    model.pods.push_back(entry);
  }
  return model;
}

ClusterRunRequest SmallRequest(const std::string& policy, uint64_t seed = 11) {
  ClusterRunRequest request;
  request.spec.machines = 12;
  request.spec.lc_demand = {
      {LcAppKind::kEcommerce, 1, 0.45},
      {LcAppKind::kRedis, 2, 0.60},
      {LcAppKind::kSolr, 1, 0.35},
  };
  request.spec.be_backlog = {
      {BeJobKind::kCpuStress, 2.0},
      {BeJobKind::kWordcount, 1.0},
      {BeJobKind::kStreamDramBig, 1.0},
  };
  request.policy = policy;
  request.seed = seed;
  request.warmup_s = 2.0;
  request.measure_s = 10.0;
  request.model_provider = StubModel;
  return request;
}

void ExpectBitIdentical(const ClusterSummary& a, const ClusterSummary& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.emu, b.emu);
  EXPECT_EQ(a.lc_throughput, b.lc_throughput);
  EXPECT_EQ(a.be_throughput, b.be_throughput);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.membw_util, b.membw_util);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.be_kills, b.be_kills);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.worst_tail_ratio, b.worst_tail_ratio);
  EXPECT_EQ(a.placement_churn, b.placement_churn);
  EXPECT_EQ(a.machines_used, b.machines_used);
  EXPECT_EQ(a.groups_placed, b.groups_placed);
  EXPECT_EQ(a.groups_unplaced, b.groups_unplaced);
  EXPECT_EQ(a.solo_groups, b.solo_groups);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].be, b.groups[i].be);
    EXPECT_EQ(a.groups[i].first_machine, b.groups[i].first_machine);
    EXPECT_EQ(a.groups[i].summary.emu, b.groups[i].summary.emu);
    EXPECT_EQ(a.groups[i].summary.worst_tail_ms, b.groups[i].summary.worst_tail_ms);
  }
  ASSERT_EQ(a.recording.events.size(), b.recording.events.size());
}

TEST(DeriveGroupSeedTest, MatchesFlattenedTrialSeeds) {
  // Epoch-major flattening over DeriveTrialSeed: a group trial can be
  // reproduced standalone from (base, epoch, groups_per_epoch, group).
  for (int epoch : {0, 1, 3}) {
    for (int group : {0, 1, 7}) {
      EXPECT_EQ(DeriveGroupSeed(99, epoch, 8, group),
                DeriveTrialSeed(99, static_cast<uint64_t>(epoch) * 8 + group));
    }
  }
}

TEST(ClusterRunTest, WorkerCountDoesNotChangeResults) {
  // Mixed-policy requests run serially and with 8 workers must be
  // bit-identical — the tentpole's core determinism guarantee.
  const std::vector<ClusterRunRequest> requests = {
      SmallRequest(kPolicyRhythmAware), SmallRequest(kPolicyBinPacking),
      SmallRequest(kPolicyRandom, 17), SmallRequest(kPolicyGreedy)};

  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions wide;
  wide.jobs = 8;
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ExpectBitIdentical(RunCluster(requests[i], serial),
                       RunCluster(requests[i], wide));
  }
}

TEST(ClusterRunTest, GroupTrialReproducibleStandalone) {
  // A placed group's summary equals a direct Run() of the equivalent
  // RunRequest with the engine-derived seed — groups are plain trials.
  const ClusterRunRequest request = SmallRequest(kPolicyBinPacking);
  const ClusterSummary summary = RunCluster(request);
  ASSERT_FALSE(summary.groups.empty());
  const GroupOutcome& outcome = summary.groups.front();
  ASSERT_TRUE(outcome.placed);

  RunRequest trial;
  trial.app = outcome.app;
  trial.be = outcome.be;
  trial.controller = ControllerKind::kRhythm;
  trial.seed = DeriveGroupSeed(request.seed, 0, request.spec.TotalGroups(),
                               outcome.group);
  trial.warmup_s = request.warmup_s;
  trial.measure_s = request.measure_s;
  trial.load = outcome.load;
  const AppPlacementModel model = StubModel(outcome.app);
  for (const PodPlacementModel& pod : model.pods) {
    trial.thresholds.push_back(pod.thresholds);
  }
  const RunSummary direct = rhythm::Run(trial);
  EXPECT_EQ(outcome.summary.emu, direct.emu);
  EXPECT_EQ(outcome.summary.lc_throughput, direct.lc_throughput);
  EXPECT_EQ(outcome.summary.be_throughput, direct.be_throughput);
  EXPECT_EQ(outcome.summary.worst_tail_ms, direct.worst_tail_ms);
  EXPECT_EQ(outcome.summary.sla_violations, direct.sla_violations);
}

TEST(ClusterRunTest, EmitsPlacementEventsAndRoundTripsJsonl) {
  const ClusterSummary summary = RunCluster(SmallRequest(kPolicyRhythmAware));
  const Recording& recording = summary.recording;
  EXPECT_EQ(recording.meta.app, "cluster");
  EXPECT_EQ(recording.meta.be, kPolicyRhythmAware);

  // One epoch-begin plus one event per group, all kPlacement.
  ASSERT_EQ(recording.events.size(),
            1u + static_cast<size_t>(summary.groups_total));
  int epoch_begins = 0, placed = 0;
  for (const ObsEvent& event : recording.events) {
    EXPECT_EQ(event.kind, ObsKind::kPlacement);
    const auto op = static_cast<ObsPlacementOp>(event.code);
    if (op == ObsPlacementOp::kEpochBegin) {
      ++epoch_begins;
    } else if (op == ObsPlacementOp::kGroupPlaced ||
               op == ObsPlacementOp::kGroupSolo) {
      ++placed;
      EXPECT_GE(event.machine, 0);
      EXPECT_GT(event.b, 0.0);  // pod count rides in b.
    }
  }
  EXPECT_EQ(epoch_begins, 1);
  EXPECT_EQ(placed, summary.groups_placed);

  // The JSONL round trip preserves the placement stream byte-exactly —
  // what obs_query consumes.
  const Recording reloaded = FromJsonl(ToJsonl(recording));
  ASSERT_EQ(reloaded.events.size(), recording.events.size());
  for (size_t i = 0; i < recording.events.size(); ++i) {
    EXPECT_EQ(reloaded.events[i].kind, recording.events[i].kind);
    EXPECT_EQ(reloaded.events[i].code, recording.events[i].code);
    EXPECT_EQ(reloaded.events[i].detail, recording.events[i].detail);
    EXPECT_EQ(reloaded.events[i].machine, recording.events[i].machine);
    EXPECT_EQ(reloaded.events[i].time_s, recording.events[i].time_s);
    EXPECT_EQ(reloaded.events[i].a, recording.events[i].a);
    EXPECT_EQ(reloaded.events[i].b, recording.events[i].b);
    EXPECT_EQ(reloaded.events[i].c, recording.events[i].c);
    EXPECT_EQ(reloaded.events[i].d, recording.events[i].d);
  }
}

TEST(ClusterRunTest, RandomPolicyChurnsAcrossEpochs) {
  ClusterRunRequest request = SmallRequest(kPolicyRandom, 3);
  request.epochs = 3;
  const ClusterSummary summary = RunCluster(request);
  EXPECT_EQ(summary.epochs, 3);
  EXPECT_EQ(summary.groups_total, request.spec.TotalGroups() * 3);
  // Reshuffling every epoch must move at least one group at least once.
  EXPECT_GT(summary.placement_churn, 0);

  // Deterministic policies never churn on a flat load.
  ClusterRunRequest stable = SmallRequest(kPolicyRhythmAware);
  stable.epochs = 3;
  EXPECT_EQ(RunCluster(stable).placement_churn, 0);
}

TEST(ClusterRunTest, UnplacedGroupsAreAccounted) {
  ClusterRunRequest request = SmallRequest(kPolicyBinPacking);
  request.spec.machines = 6;  // 10 pods demanded: someone must lose.
  const ClusterSummary summary = RunCluster(request);
  EXPECT_GT(summary.groups_unplaced, 0);
  EXPECT_EQ(summary.groups_placed + summary.groups_unplaced,
            summary.groups_total);
  EXPECT_LE(summary.machines_used, 6);
  for (const GroupOutcome& outcome : summary.groups) {
    if (!outcome.placed) {
      EXPECT_EQ(outcome.first_machine, -1);
      EXPECT_EQ(outcome.summary.emu, 0.0);
    }
  }
}

TEST(ClusterRunTest, RejectsMalformedRequests) {
  ClusterRunRequest unknown = SmallRequest("no-such-policy");
  EXPECT_THROW(RunCluster(unknown), std::invalid_argument);

  ClusterRunRequest empty = SmallRequest(kPolicyRandom);
  empty.spec.lc_demand.clear();
  EXPECT_THROW(RunCluster(empty), std::invalid_argument);

  ClusterRunRequest bad_epochs = SmallRequest(kPolicyRandom);
  bad_epochs.epochs = 0;
  EXPECT_THROW(RunCluster(bad_epochs), std::invalid_argument);

  ClusterRunRequest bad_window = SmallRequest(kPolicyRandom);
  bad_window.measure_s = 0.0;
  EXPECT_THROW(RunCluster(bad_window), std::invalid_argument);
}

}  // namespace
}  // namespace rhythm

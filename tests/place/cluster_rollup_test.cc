// RollupCluster on hand-built group outcomes: the cluster summary is a pure
// function of the request and the outcomes, so every rollup rule is checked
// here without running a single trial.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/control/machine_agent.h"
#include "src/place/cluster_engine.h"

namespace rhythm {
namespace {

constexpr double kMeasureS = 10.0;

ClusterRunRequest Request(int machines, int groups, int epochs) {
  ClusterRunRequest request;
  request.spec.machines = machines;
  request.spec.lc_demand = {{LcAppKind::kRedis, groups, 0.5}};
  request.measure_s = kMeasureS;
  request.epochs = epochs;
  return request;
}

// A placed, undisrupted two-pod Redis group on machines [2g, 2g + 2).
GroupOutcome Placed(int epoch, int group, int incarnation = 0) {
  GroupOutcome outcome;
  outcome.epoch = epoch;
  outcome.group = group;
  outcome.incarnation = incarnation;
  outcome.app = LcAppKind::kRedis;
  outcome.be = BeJobKind::kWordcount;
  outcome.placed = true;
  outcome.first_machine = 2 * group;
  outcome.pods = 2;
  outcome.served_measure_s = kMeasureS;
  return outcome;
}

TEST(ClusterRollupTest, DisruptedIncarnationCountsItsServedFraction) {
  GroupOutcome half = Placed(0, 0);
  half.disrupted = true;
  half.served_measure_s = kMeasureS / 2;
  half.summary.emu = 0.8;
  half.summary.lc_throughput = 0.6;
  half.summary.sla_violations = 3;
  GroupOutcome full = Placed(0, 1);
  full.summary.emu = 0.4;
  full.summary.lc_throughput = 0.3;

  const ClusterSummary summary =
      RollupCluster(Request(4, 2, 1), {half, full});
  // Each group holds half the machines; the disrupted one counts for half
  // of its window.
  EXPECT_DOUBLE_EQ(summary.emu, 0.5 * 0.5 * 0.8 + 0.5 * 0.4);
  EXPECT_DOUBLE_EQ(summary.lc_throughput, 0.5 * 0.5 * 0.6 + 0.5 * 0.3);
  ASSERT_EQ(summary.per_app.size(), 1u);
  const AppClusterStats& app = summary.per_app.front();
  EXPECT_EQ(app.trials, 2);
  EXPECT_DOUBLE_EQ(app.emu, (0.5 * 0.8 + 0.4) / 1.5);
  EXPECT_DOUBLE_EQ(app.lc_throughput, (0.5 * 0.6 + 0.3) / 1.5);
  // Violations per controller tick over the ticks actually served.
  const double ticks = 2 * (kMeasureS / 2 + kMeasureS) /
                       MachineAgent::kPeriodSeconds;
  EXPECT_DOUBLE_EQ(summary.slo_violation_rate, 3.0 / ticks);
  EXPECT_DOUBLE_EQ(app.slo_violation_rate, 3.0 / ticks);
  EXPECT_EQ(summary.groups_placed, 2);
  EXPECT_EQ(summary.groups_disrupted, 1);
  EXPECT_EQ(summary.groups_lost, 1);
  EXPECT_DOUBLE_EQ(summary.down_group_seconds, kMeasureS / 2);
}

TEST(ClusterRollupTest, OverlappingReplacementWindowsFloorDownSecondsAtZero) {
  // Group 0 served 8 s before its machine died and its replacement measured
  // 6 s more: 14 s against a 10 s demand is no downtime, not negative.
  GroupOutcome killed = Placed(0, 0);
  killed.disrupted = true;
  killed.served_measure_s = 8.0;
  GroupOutcome replacement = Placed(0, 0, 1);
  replacement.first_machine = 6;
  replacement.served_measure_s = 6.0;
  // Group 1 lost its machine after 4 s and was never replaced.
  GroupOutcome lost = Placed(0, 1);
  lost.disrupted = true;
  lost.served_measure_s = 4.0;

  const ClusterSummary summary =
      RollupCluster(Request(8, 2, 1), {killed, replacement, lost});
  EXPECT_DOUBLE_EQ(summary.down_group_seconds, kMeasureS - 4.0);
  EXPECT_EQ(summary.groups_disrupted, 2);
  EXPECT_EQ(summary.groups_failed_over, 1);
  EXPECT_EQ(summary.groups_lost, 1);
}

TEST(ClusterRollupTest, ChurnCountsOnlyEffectiveAssignmentChanges) {
  std::vector<GroupOutcome> outcomes;
  for (int group = 0; group < 5; ++group) {
    outcomes.push_back(Placed(0, group));
    outcomes.push_back(Placed(1, group));
  }
  auto at = [&outcomes](int epoch, int group) -> GroupOutcome& {
    return outcomes[static_cast<size_t>(2 * group + epoch)];
  };
  at(1, 0).be = BeJobKind::kCpuStress;  // BE change: churn.
  at(1, 1).run_solo = true;             // solo flip: churn.
  at(1, 2).placed = false;              // placed -> unplaced: churn.
  at(1, 2).first_machine = -1;
  at(0, 3).run_solo = true;             // solo both epochs, BE differs:
  at(1, 3).run_solo = true;             // no BE runs, so no churn.
  at(1, 3).be = BeJobKind::kCpuStress;
  // Group 4 keeps its assignment; a failover incarnation with another BE
  // is not an epoch placement and does not count.
  at(0, 4).disrupted = true;
  GroupOutcome failover = Placed(0, 4, 1);
  failover.be = BeJobKind::kStreamDramBig;
  outcomes.push_back(failover);

  const ClusterSummary summary = RollupCluster(Request(12, 5, 2), outcomes);
  EXPECT_EQ(summary.placement_churn, 3);
  EXPECT_EQ(summary.groups_total, 10);
  EXPECT_EQ(summary.groups_placed, 9);
  EXPECT_EQ(summary.groups_unplaced, 1);
  EXPECT_EQ(summary.solo_groups, 3);
}

TEST(ClusterRollupTest, FailoverCountsTowardMachinesUsedAndLostIsTheRest) {
  std::vector<GroupOutcome> outcomes = {Placed(0, 0), Placed(0, 1),
                                        Placed(0, 2)};
  outcomes[0].disrupted = true;
  outcomes[1].disrupted = true;
  outcomes[2].disrupted = true;
  GroupOutcome replacement = Placed(0, 0, 1);
  replacement.first_machine = 7;  // past every epoch placement (max 6).
  replacement.pods = 3;
  outcomes.push_back(replacement);

  const ClusterSummary summary = RollupCluster(Request(12, 3, 1), outcomes);
  EXPECT_EQ(summary.machines_used, 10);
  EXPECT_EQ(summary.groups_disrupted, 3);
  EXPECT_EQ(summary.groups_failed_over, 1);
  EXPECT_EQ(summary.groups_lost, 2);
  EXPECT_EQ(summary.pods_migrated, 3);
}

TEST(ClusterRollupTest, OutcomeOrderDoesNotChangeTheSummary) {
  std::vector<GroupOutcome> outcomes;
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (int group = 0; group < 3; ++group) {
      GroupOutcome outcome = Placed(epoch, group);
      outcome.app = group == 1 ? LcAppKind::kSolr : LcAppKind::kRedis;
      outcome.summary.emu = 0.1 * (1 + group + 3 * epoch);
      outcome.summary.lc_throughput = 0.07 * (2 + group + epoch);
      outcome.summary.sla_violations = static_cast<uint64_t>(group + epoch);
      outcome.summary.worst_tail_ratio = 0.3 + 0.1 * group;
      outcomes.push_back(outcome);
    }
  }
  outcomes[1].disrupted = true;
  outcomes[1].served_measure_s = 3.0;
  GroupOutcome replacement = Placed(0, 1, 1);
  replacement.app = LcAppKind::kSolr;
  replacement.first_machine = 9;
  replacement.served_measure_s = 5.0;
  replacement.summary.emu = 0.55;
  outcomes.push_back(replacement);
  outcomes[4].be = BeJobKind::kCpuStress;

  const ClusterRunRequest request = Request(12, 3, 2);
  const ClusterSummary sorted = RollupCluster(request, outcomes);
  std::reverse(outcomes.begin(), outcomes.end());
  std::rotate(outcomes.begin(), outcomes.begin() + 3, outcomes.end());
  const ClusterSummary shuffled = RollupCluster(request, outcomes);

  EXPECT_EQ(shuffled.emu, sorted.emu);
  EXPECT_EQ(shuffled.lc_throughput, sorted.lc_throughput);
  EXPECT_EQ(shuffled.slo_violation_rate, sorted.slo_violation_rate);
  EXPECT_EQ(shuffled.worst_tail_ratio, sorted.worst_tail_ratio);
  EXPECT_EQ(shuffled.placement_churn, sorted.placement_churn);
  EXPECT_EQ(shuffled.machines_used, sorted.machines_used);
  EXPECT_EQ(shuffled.groups_lost, sorted.groups_lost);
  EXPECT_EQ(shuffled.down_group_seconds, sorted.down_group_seconds);
  EXPECT_EQ(sorted.placement_churn, 1);
  EXPECT_EQ(sorted.machines_used, 11);
  ASSERT_EQ(shuffled.per_app.size(), sorted.per_app.size());
  for (size_t a = 0; a < sorted.per_app.size(); ++a) {
    EXPECT_EQ(shuffled.per_app[a].app, sorted.per_app[a].app);
    EXPECT_EQ(shuffled.per_app[a].emu, sorted.per_app[a].emu);
    EXPECT_EQ(shuffled.per_app[a].slo_violation_rate,
              sorted.per_app[a].slo_violation_rate);
  }
  // Both come back in (epoch, group, incarnation) order.
  ASSERT_EQ(shuffled.groups.size(), sorted.groups.size());
  for (size_t i = 0; i < sorted.groups.size(); ++i) {
    EXPECT_EQ(shuffled.groups[i].epoch, sorted.groups[i].epoch);
    EXPECT_EQ(shuffled.groups[i].group, sorted.groups[i].group);
    EXPECT_EQ(shuffled.groups[i].incarnation, sorted.groups[i].incarnation);
  }
  EXPECT_EQ(sorted.groups[2].group, 1);
  EXPECT_EQ(sorted.groups[2].incarnation, 1);
}

}  // namespace
}  // namespace rhythm

// PlaceGroups, the one placement step behind epoch placement, failover and
// /v1/placements: scripted policies over a hand-built view and roster, no
// simulation and no registry.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/control/cluster_supervisor.h"

namespace rhythm {
namespace {

// Returns a fixed decision list; counts the OnTick calls it saw.
class ScriptedPolicy : public PlacementPolicy {
 public:
  explicit ScriptedPolicy(std::vector<PlacementDecision> decisions)
      : decisions_(std::move(decisions)) {}
  const std::string& name() const override { return name_; }
  void OnTick(const ClusterView&) override { ++ticks; }
  std::vector<PlacementDecision> Decide(const ClusterView&) override { return decisions_; }

  int ticks = 0;

 private:
  std::string name_ = "scripted";
  std::vector<PlacementDecision> decisions_;
};

PlacementDecision Decision(int group, BeJobKind be = BeJobKind::kWordcount, bool solo = false) {
  return PlacementDecision{group, be, solo, 0.5 + group};
}

// Pending groups of the given pod counts, numbered in order, with one
// kWordcount quota slot per group.
ClusterView ViewOf(const std::vector<int>& pods) {
  ClusterView view;
  for (int count : pods) {
    view.pending.push_back(PendingGroup{static_cast<int>(view.pending.size()),
                                        LcAppKind::kRedis, 0.5, count});
    view.be_quota.push_back(BeJobKind::kWordcount);
  }
  return view;
}

std::vector<int> FirstMachines(const std::vector<GroupPlacement>& placements) {
  std::vector<int> machines;
  for (const GroupPlacement& placement : placements) {
    machines.push_back(placement.first_machine);
  }
  return machines;
}

TEST(PlaceGroupsTest, ContractViolationsThrowBeforeAnyAllocation) {
  const std::vector<std::vector<PlacementDecision>> broken = {
      {Decision(0)},                                      // too few decisions.
      {Decision(0), Decision(0)},                         // group 0 twice.
      {Decision(0), Decision(1, BeJobKind::kCpuStress)},  // BE off the quota.
  };
  for (const std::vector<PlacementDecision>& decisions : broken) {
    ScriptedPolicy policy(decisions);
    MachineRoster roster(4);
    EXPECT_THROW(PlaceGroups(policy, ViewOf({2, 2}), roster, false), std::invalid_argument);
    EXPECT_EQ(roster.Allocate(4), 0);  // nothing was taken.
  }

  // A solo decision draws nothing from the quota, whatever its BE says.
  ScriptedPolicy solo({Decision(0, BeJobKind::kCpuStress, true), Decision(1)});
  MachineRoster roster(4);
  EXPECT_EQ(FirstMachines(PlaceGroups(solo, ViewOf({2, 2}), roster, false)),
            (std::vector<int>{0, 2}));
  EXPECT_EQ(solo.ticks, 1);
}

TEST(PlaceGroupsTest, SkipsAGroupThatNoLongerFitsAndPlacesASmallerLaterOne) {
  // Priority 1, 0, 2: group 1 takes machines 0-3, group 0 (3 pods) finds
  // only two left, group 2 (2 pods) still lands on them.
  ScriptedPolicy policy({Decision(1), Decision(0), Decision(2)});
  MachineRoster roster(6);
  const std::vector<GroupPlacement> placements =
      PlaceGroups(policy, ViewOf({3, 4, 2}), roster, false);
  ASSERT_EQ(placements.size(), 3u);
  EXPECT_EQ(placements[0].group, 1);
  EXPECT_EQ(placements[1].group, 0);
  EXPECT_EQ(placements[2].group, 2);
  EXPECT_EQ(FirstMachines(placements), (std::vector<int>{0, -1, 4}));
  EXPECT_EQ(placements[0].score, 1.5);
  EXPECT_EQ(placements[0].be, BeJobKind::kWordcount);
  EXPECT_FALSE(placements[0].run_solo);
}

TEST(PlaceGroupsTest, BudgetCapsSuccessfulPlacements) {
  // Group 0 fits nowhere and costs no budget; group 1 spends it; group 2
  // goes unplaced with machines to spare.
  ScriptedPolicy policy({Decision(0), Decision(1), Decision(2)});
  MachineRoster roster(4);
  EXPECT_EQ(FirstMachines(PlaceGroups(policy, ViewOf({6, 2, 1}), roster, false, /*budget=*/1)),
            (std::vector<int>{-1, 0, -1}));
}

TEST(PlaceGroupsTest, ForceSoloSetsRunSoloOnEveryPlacement) {
  ScriptedPolicy policy({Decision(0), Decision(1, BeJobKind::kWordcount, true), Decision(2)});
  MachineRoster roster(2);
  for (const GroupPlacement& placement :
       PlaceGroups(policy, ViewOf({1, 1, 1}), roster, /*force_solo=*/true)) {
    EXPECT_TRUE(placement.run_solo) << "group " << placement.group;
  }
}

TEST(PlaceGroupsTest, DeadMachineSplitsTheFreeRuns) {
  MachineRoster roster(6);
  ASSERT_TRUE(roster.MarkDown(2));  // free runs: 0-1 and 3-5.
  ScriptedPolicy policy({Decision(0), Decision(1), Decision(2)});
  EXPECT_EQ(FirstMachines(PlaceGroups(policy, ViewOf({3, 2, 1}), roster, false)),
            (std::vector<int>{3, 0, -1}));
}

TEST(PlaceGroupsTest, DisabledSupervisorLosesEveryVictimWithoutAskingThePolicy) {
  ScriptedPolicy policy({Decision(1), Decision(0)});
  ClusterSupervisor supervisor(8, SupervisorOptions{});
  const std::vector<GroupPlacement> placements = supervisor.PlanFailover(policy, ViewOf({2, 2}));
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0].group, 0);  // victim order, not priority order.
  EXPECT_EQ(placements[1].group, 1);
  EXPECT_EQ(FirstMachines(placements), (std::vector<int>{-1, -1}));
  EXPECT_EQ(policy.ticks, 0);
}

}  // namespace
}  // namespace rhythm

#include "src/control/cluster_supervisor.h"

#include <map>
#include <stdexcept>
#include <string>

#include "src/common/logging.h"

namespace rhythm {

MachineRoster::MachineRoster(int machines)
    : state_(static_cast<size_t>(machines), kFree) {
  RHYTHM_CHECK(machines > 0);
}

bool MachineRoster::MarkDown(int machine) {
  if (machine < 0 || machine >= machines() ||
      state_[static_cast<size_t>(machine)] == kDead) {
    return false;
  }
  state_[static_cast<size_t>(machine)] = kDead;
  ++down_;
  return true;
}

bool MachineRoster::MarkUp(int machine) {
  if (machine < 0 || machine >= machines() ||
      state_[static_cast<size_t>(machine)] != kDead) {
    return false;
  }
  state_[static_cast<size_t>(machine)] = kFree;  // rejoins come back empty.
  --down_;
  return true;
}

int MachineRoster::Allocate(int pods) {
  if (pods <= 0 || pods > machines()) {
    return -1;
  }
  int run = 0;
  for (int m = 0; m < machines(); ++m) {
    if (state_[static_cast<size_t>(m)] == kFree) {
      if (++run == pods) {
        const int first = m - pods + 1;
        for (int k = first; k <= m; ++k) {
          state_[static_cast<size_t>(k)] = kOccupied;
        }
        return first;
      }
    } else {
      run = 0;
    }
  }
  return -1;
}

void MachineRoster::Release(int first, int pods) {
  for (int m = first; m < first + pods; ++m) {
    if (m >= 0 && m < machines() && state_[static_cast<size_t>(m)] == kOccupied) {
      state_[static_cast<size_t>(m)] = kFree;
    }
  }
}

void MachineRoster::ReleaseAll() {
  for (uint8_t& state : state_) {
    if (state == kOccupied) {
      state = kFree;
    }
  }
}

ClusterSupervisor::ClusterSupervisor(int machines, const SupervisorOptions& options)
    : roster_(machines), options_(options) {
  if (options_.migration_budget < 0) {
    throw std::invalid_argument("SupervisorOptions: migration_budget must be >= 0");
  }
  if (!(options_.degraded_dead_fraction > 0.0) || options_.degraded_dead_fraction > 1.0) {
    throw std::invalid_argument(
        "SupervisorOptions: degraded_dead_fraction must lie in (0, 1]");
  }
}

bool ClusterSupervisor::degraded() const {
  return options_.enabled &&
         static_cast<double>(roster_.down()) >=
             options_.degraded_dead_fraction * roster_.machines();
}

std::vector<GroupPlacement> PlaceGroups(PlacementPolicy& policy,
                                        const ClusterView& view,
                                        MachineRoster& roster, bool force_solo,
                                        int budget) {
  policy.OnTick(view);
  const std::vector<PlacementDecision> decisions = policy.Decide(view);

  const std::string who = "placement policy \"" + policy.name() + "\"";
  if (decisions.size() != view.pending.size()) {
    throw std::invalid_argument(who + " returned " +
                                std::to_string(decisions.size()) +
                                " decisions for " +
                                std::to_string(view.pending.size()) + " groups");
  }
  std::vector<bool> decided(view.pending.size(), false);
  std::map<BeJobKind, int> quota_left;
  for (BeJobKind be : view.be_quota) {
    ++quota_left[be];
  }
  for (const PlacementDecision& decision : decisions) {
    if (decision.group < 0 ||
        decision.group >= static_cast<int>(view.pending.size()) ||
        decided[static_cast<size_t>(decision.group)]) {
      throw std::invalid_argument(who + " decided group " +
                                  std::to_string(decision.group) +
                                  " zero or multiple times");
    }
    decided[static_cast<size_t>(decision.group)] = true;
    if (!decision.run_solo && --quota_left[decision.be] < 0) {
      throw std::invalid_argument(who + " overdraws the BE quota");
    }
  }

  std::vector<GroupPlacement> placements;
  placements.reserve(decisions.size());
  for (const PlacementDecision& decision : decisions) {
    GroupPlacement placement;
    placement.group = decision.group;
    placement.be = decision.be;
    placement.run_solo = decision.run_solo || force_solo;
    placement.score = decision.score;
    if (budget > 0) {
      placement.first_machine = roster.Allocate(
          view.pending[static_cast<size_t>(decision.group)].pods);
      if (placement.first_machine >= 0) {
        --budget;
      }
    }
    placements.push_back(placement);
  }
  return placements;
}

std::vector<GroupPlacement> ClusterSupervisor::PlanFailover(
    PlacementPolicy& policy, const ClusterView& victims) {
  if (!options_.enabled) {
    std::vector<GroupPlacement> lost(victims.pending.size());
    for (size_t v = 0; v < lost.size(); ++v) {
      lost[v].group = static_cast<int>(v);
    }
    return lost;
  }
  return PlaceGroups(policy, victims, roster_, degraded(),
                     options_.migration_budget);
}

void ClusterSupervisor::ObserveBarrier() {
  if (degraded()) {
    ++degraded_barriers_;
  }
}

}  // namespace rhythm

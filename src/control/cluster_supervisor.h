// ClusterSupervisor: barrier-driven failover for the partitioned cluster
// engine (DESIGN.md §14).
//
// Machine loss is a cluster-scope fault (FaultKind::kMachineFailure /
// kMachineRestart) enacted at the shard barrier — the only instant the whole
// cluster rests in a consistent state. The engine kills the trials of groups
// whose machines died, then hands the supervisor the victims; the supervisor
// consults the regular PlacementPolicy registry for priority/BE/solo choices
// and re-places whole groups onto contiguous runs of surviving free machines,
// bounded by a per-barrier migration budget. Replacements re-warm and carry a
// BE re-admission backoff (a kBeAdmissionHold window), so failover costs what
// it should. When the dead fraction reaches the survivability threshold the
// supervisor flips to degraded mode: every subsequent placement — epoch or
// failover — runs solo, suspending BE cluster-wide until enough machines
// rejoin.
//
// Determinism contract: everything here runs on the coordinating thread
// between Advance calls, consumes only slot-order-merged state, and draws no
// randomness of its own (the policy's seed is fixed at construction) — so a
// run with machine loss is bit-identical at any RHYTHM_SHARDS / RHYTHM_JOBS,
// with or without the supervisor enabled.
//
// Layering: this header needs src/place types (policy, views), so the
// implementation compiles into the rhythm_place library even though the file
// lives with the other controllers under src/control.

#ifndef RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_
#define RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/place/placement_policy.h"

namespace rhythm {

struct SupervisorOptions {
  // Master switch. Disabled, machine losses still kill the victims' trials
  // (physics is not optional) but nothing is re-placed: disrupted demand
  // stays down until the next epoch re-places the cluster.
  bool enabled = false;
  // Most victim groups re-placed per loss barrier; victims beyond the budget
  // (in policy priority order) are lost for the rest of the epoch.
  int migration_budget = std::numeric_limits<int>::max();
  // BE re-admission backoff for migrated groups: every pod of a replacement
  // trial starts under a kBeAdmissionHold window of this length, so BE work
  // ramps back instead of slamming into a cold re-warmed group. <= 0: off.
  double readmission_backoff_s = 10.0;
  // Survivability threshold: when machines_down / machines >= this fraction,
  // degraded mode forces run_solo on every subsequent placement until
  // rejoins bring the dead fraction back under.
  double degraded_dead_fraction = 0.5;
};

// Machine liveness + occupancy, the allocation substrate of PlaceGroups
// below. First-fit over contiguous alive+free runs: with every machine alive
// this is exactly the cursor allocation the engine used before failure
// domains existed, which is what keeps fault-free runs bit-identical.
class MachineRoster {
 public:
  explicit MachineRoster(int machines);

  int machines() const { return static_cast<int>(state_.size()); }
  int down() const { return down_; }
  int alive() const { return machines() - down_; }

  // Loss/rejoin transitions. Return false (and change nothing) when the
  // machine is already in the target state — duplicate schedule events
  // degrade to no-ops.
  bool MarkDown(int machine);
  bool MarkUp(int machine);

  // Lowest-index contiguous run of `pods` alive+free machines, marked
  // occupied; -1 when no such run exists.
  int Allocate(int pods);

  // Frees the surviving machines of [first, first + pods); dead ones stay
  // dead (they free on rejoin).
  void Release(int first, int pods);

  // Epoch boundary: every occupied machine frees; dead machines stay dead.
  void ReleaseAll();

 private:
  enum State : uint8_t { kFree = 0, kOccupied = 1, kDead = 2 };
  std::vector<uint8_t> state_;
  int down_ = 0;
};

// One pending group's outcome of a placement step, in policy priority order.
struct GroupPlacement {
  int group = 0;  // index into the view's pending list.
  BeJobKind be = BeJobKind::kCpuStress;
  bool run_solo = false;
  double score = 0.0;
  int first_machine = -1;  // -1: unplaced (nothing fits, or past the budget).
};

// The one placement step behind epoch placement, failover and
// /v1/placements: shows `policy` the view (OnTick, then Decide), checks the
// decision contract — exactly one decision per pending group, non-solo BEs
// drawn from the quota multiset; std::invalid_argument otherwise — and
// allocates machines first-fit from `roster` in priority order. A group that
// no longer fits is skipped, so smaller later groups may still land; after
// `budget` successful placements the rest go unplaced. `force_solo` (degraded
// mode) sets run_solo on every placement.
std::vector<GroupPlacement> PlaceGroups(
    PlacementPolicy& policy, const ClusterView& view, MachineRoster& roster,
    bool force_solo, int budget = std::numeric_limits<int>::max());

class ClusterSupervisor {
 public:
  ClusterSupervisor(int machines, const SupervisorOptions& options);

  MachineRoster& roster() { return roster_; }
  const MachineRoster& roster() const { return roster_; }

  // Degraded while enabled and the dead fraction sits at/above the
  // survivability threshold. Rejoins can clear it.
  bool degraded() const;

  // Failover placements for `victims.pending`: PlaceGroups under the
  // migration budget, forcing solo in degraded mode. Disabled, every victim
  // comes back unplaced, in victim order, without asking the policy.
  std::vector<GroupPlacement> PlanFailover(PlacementPolicy& policy,
                                           const ClusterView& victims);

  // Barrier accounting: counts barriers spent degraded (for
  // ClusterSummary::degraded_barriers).
  void ObserveBarrier();

  int degraded_barriers() const { return degraded_barriers_; }

 private:
  MachineRoster roster_;
  SupervisorOptions options_;
  int degraded_barriers_ = 0;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_

// PlacementPolicy: the pluggable cluster-scheduler interface (batsched's
// ISchedulingAlgorithm shape adapted to Rhythm's problem).
//
// The engine hands a policy a read-only ClusterView — the spec, the pending
// groups, the BE quota multiset, and the per-app placement models — once per
// placement epoch: OnTick() lets stateful policies observe the epoch, then
// Decide() returns one PlacementDecision per pending group in *placement
// priority order*. The engine walks decisions in that order, allocating
// contiguous machine runs until the population is exhausted; later decisions
// go unplaced. A policy therefore controls (a) which BE lands next to which
// group, (b) which groups run solo, and (c) which groups are sacrificed when
// machines run out.
//
// Determinism contract: a policy must be a pure function of the view and the
// seed it was constructed with — no wall clock, no global RNG, no state
// carried across Decide() calls other than what OnTick() derives from views
// it was shown. This is what makes cluster runs bit-identical at any worker
// count and lets the registry recreate a policy anywhere.

#ifndef RHYTHM_SRC_PLACE_PLACEMENT_POLICY_H_
#define RHYTHM_SRC_PLACE_PLACEMENT_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/place/cluster_spec.h"
#include "src/place/interference_score.h"

namespace rhythm {

// Read-only snapshot of the placement problem at one epoch.
struct ClusterView {
  const ClusterSpec* spec = nullptr;
  int epoch = 0;
  // Epoch load multiplier (diurnal ramps); group loads are already scaled.
  double load_scale = 1.0;
  // Groups awaiting placement, in stable group order, loads scaled.
  std::vector<PendingGroup> pending;
  // BE quota for this epoch: one slot per pending group, expanded from the
  // backlog by weight (canonical backlog order). Policies assign each placed
  // group a BE drawn from this multiset.
  std::vector<BeJobKind> be_quota;
  // Per-app scoring models, indexed by the app kinds present in `pending`.
  std::function<const AppPlacementModel&(LcAppKind)> model;
};

// The view of one placement epoch: `spec`'s groups with loads scaled by
// `load_scale` and clamped to [0, 1], and the BE quota expanded to one slot
// per group. The view points at `spec`, which must outlive it.
ClusterView EpochView(const ClusterSpec& spec, int epoch, double load_scale,
                      std::function<const AppPlacementModel&(LcAppKind)> model);

// One group's placement. Decisions are returned in priority order; the
// engine allocates machines in that order and marks the overflow unplaced.
struct PlacementDecision {
  int group = -1;             // PendingGroup::group this decides.
  BeJobKind be = BeJobKind::kCpuStress;
  bool run_solo = false;      // true: no BE lands (be is ignored).
  double score = 0.0;         // the policy's predicted-interference score.
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual const std::string& name() const = 0;

  // Epoch observation hook; called once per epoch, before Decide(), with the
  // same view. Default: stateless no-op.
  virtual void OnTick(const ClusterView& view) { (void)view; }

  // Returns exactly one decision per pending group (any order; the order IS
  // the placement priority). Non-solo decisions must draw their BEs from the
  // view's quota multiset — the engine validates and throws otherwise.
  virtual std::vector<PlacementDecision> Decide(const ClusterView& view) = 0;
};

// -- Registry ---------------------------------------------------------------

using PlacementPolicyFactory =
    std::function<std::unique_ptr<PlacementPolicy>(uint64_t seed)>;

// Registers a factory under `name`; returns false (and leaves the existing
// entry) when the name is taken. The four built-ins below self-register on
// first registry use.
bool RegisterPlacementPolicy(const std::string& name, PlacementPolicyFactory factory);

// Instantiates a registered policy; throws std::invalid_argument for unknown
// names (message lists what is registered).
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(const std::string& name,
                                                     uint64_t seed);

// Registered names, sorted. Built-ins: "bin-packing" (size-ordered first
// fit, interference-blind), "random" (seeded shuffle baseline),
// "greedy-interference" (min contribution-weighted score, threshold-blind),
// "rhythm-aware" (threshold-aware score + solo switch above loadlimit).
std::vector<std::string> PlacementPolicyNames();

inline constexpr const char* kPolicyBinPacking = "bin-packing";
inline constexpr const char* kPolicyRandom = "random";
inline constexpr const char* kPolicyGreedy = "greedy-interference";
inline constexpr const char* kPolicyRhythmAware = "rhythm-aware";

}  // namespace rhythm

#endif  // RHYTHM_SRC_PLACE_PLACEMENT_POLICY_H_

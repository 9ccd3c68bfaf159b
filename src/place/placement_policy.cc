#include "src/place/placement_policy.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace rhythm {

namespace internal {
// Defined in policies.cc; registers the four built-in policies. Called
// under the registry lock before every lookup so a static-initialization
// order cannot leave the registry empty in a static-library build.
void RegisterBuiltinPoliciesLocked(
    std::map<std::string, PlacementPolicyFactory>& registry);
}  // namespace internal

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, PlacementPolicyFactory>& Registry() {
  static std::map<std::string, PlacementPolicyFactory>* registry = [] {
    auto* map = new std::map<std::string, PlacementPolicyFactory>();
    internal::RegisterBuiltinPoliciesLocked(*map);
    return map;
  }();
  return *registry;
}

}  // namespace

ClusterView EpochView(const ClusterSpec& spec, int epoch, double load_scale,
                      std::function<const AppPlacementModel&(LcAppKind)> model) {
  ClusterView view;
  view.spec = &spec;
  view.epoch = epoch;
  view.load_scale = load_scale;
  view.pending = ExpandGroups(spec);
  for (PendingGroup& group : view.pending) {
    group.load = std::clamp(group.load * load_scale, 0.0, 1.0);
  }
  view.be_quota = ExpandBeQuota(spec, static_cast<int>(view.pending.size()));
  view.model = std::move(model);
  return view;
}

bool RegisterPlacementPolicy(const std::string& name,
                             PlacementPolicyFactory factory) {
  if (name.empty() || !factory) {
    return false;
  }
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().emplace(name, std::move(factory)).second;
}

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(const std::string& name,
                                                     uint64_t seed) {
  PlacementPolicyFactory factory;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto& registry = Registry();
    auto it = registry.find(name);
    if (it == registry.end()) {
      std::string known;
      for (const auto& [known_name, unused] : registry) {
        if (!known.empty()) {
          known += ", ";
        }
        known += known_name;
      }
      throw std::invalid_argument("unknown placement policy \"" + name +
                                  "\" (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(seed);
}

std::vector<std::string> PlacementPolicyNames() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, unused] : Registry()) {
    names.push_back(name);
  }
  return names;
}

}  // namespace rhythm

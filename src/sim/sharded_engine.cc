#include "src/sim/sharded_engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace rhythm {

std::vector<std::vector<size_t>> PartitionUnits(
    const std::vector<ShardUnit>& units, int shards) {
  RHYTHM_CHECK(shards >= 1);
  std::vector<std::vector<size_t>> assignment(static_cast<size_t>(shards));
  std::vector<double> load(static_cast<size_t>(shards), 0.0);
  for (size_t i = 0; i < units.size(); ++i) {
    // Greedy into the lightest shard; scanning in index order makes the
    // lowest index win ties, so the partition is a pure function of the
    // weight sequence.
    size_t lightest = 0;
    for (size_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[lightest]) {
        lightest = s;
      }
    }
    assignment[lightest].push_back(i);
    load[lightest] += std::max(units[i].weight, 0.0);
  }
  return assignment;
}

ShardedEngine::ShardedEngine(ShardPool* pool) : pool_(pool) {
  RHYTHM_CHECK(pool_ != nullptr);
}

void ShardedEngine::Advance(
    const std::vector<ShardUnit>& units, double from, double to,
    double window_s, const std::function<void(double window_end)>& on_window) {
  if (units.empty() || to <= from) {
    return;
  }
  const std::vector<std::vector<size_t>> assignment =
      PartitionUnits(units, pool_->shards());

  double now = from;
  while (now < to) {
    const double window_end =
        window_s > 0.0 ? std::min(now + window_s, to) : to;
    pool_->RunPhase([&](int shard) {
      for (size_t index : assignment[static_cast<size_t>(shard)]) {
        units[index].advance(window_end);
      }
    });
    ++windows_run_;
    if (on_window) {
      on_window(window_end);
    }
    now = window_end;
  }
}

}  // namespace rhythm

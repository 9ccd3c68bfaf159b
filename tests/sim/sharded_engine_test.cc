// ShardedEngine and PartitionUnits: deterministic weight-balanced
// partitioning, conservative-window advancement that is bit-identical to a
// single RunUntil, barrier hooks observing all islands at rest, and shard
// counts that never change what islands compute.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/shard_pool.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"

namespace rhythm {
namespace {

std::vector<ShardUnit> WeightedUnits(const std::vector<double>& weights) {
  std::vector<ShardUnit> units;
  for (size_t i = 0; i < weights.size(); ++i) {
    ShardUnit unit;
    unit.slot = static_cast<int>(i);
    unit.weight = weights[i];
    unit.advance = [](double) {};
    units.push_back(std::move(unit));
  }
  return units;
}

TEST(PartitionUnitsTest, DealsGreedilyToLightestShard) {
  // Weights 8,7,6,5: shard0 takes 8, shard1 takes 7, then 6 goes to the
  // (empty) shard with the lowest load... with 2 shards: {8}, {7}, then 6 to
  // shard1 (7 < 8? no: 7 <= 8, lightest is shard1), then 5 to shard0.
  const auto parts = PartitionUnits(WeightedUnits({8, 7, 6, 5}), 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], (std::vector<size_t>{0, 3}));
  EXPECT_EQ(parts[1], (std::vector<size_t>{1, 2}));
}

TEST(PartitionUnitsTest, TiesBreakToLowestShard) {
  const auto parts = PartitionUnits(WeightedUnits({1, 1, 1, 1}), 2);
  EXPECT_EQ(parts[0], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(parts[1], (std::vector<size_t>{1, 3}));
}

TEST(PartitionUnitsTest, IsDeterministicAndCoversEveryUnit) {
  std::vector<double> weights;
  for (int i = 0; i < 97; ++i) {
    weights.push_back(1.0 + (i * 13) % 7);
  }
  const auto units = WeightedUnits(weights);
  for (int shards : {1, 2, 3, 8, 97, 200}) {
    const auto a = PartitionUnits(units, shards);
    const auto b = PartitionUnits(units, shards);
    EXPECT_EQ(a, b) << "shards=" << shards;
    ASSERT_EQ(a.size(), static_cast<size_t>(shards));
    std::vector<bool> seen(units.size(), false);
    for (const auto& shard : a) {
      for (size_t index : shard) {
        ASSERT_LT(index, units.size());
        EXPECT_FALSE(seen[index]);
        seen[index] = true;
      }
    }
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "unit " << i << " lost at shards=" << shards;
    }
  }
}

TEST(PartitionUnitsTest, BalancesWeightAcrossShards) {
  // Greedy-lightest guarantees max load <= min load + max single weight.
  std::vector<double> weights;
  for (int i = 0; i < 64; ++i) {
    weights.push_back(2.0 + (i * 29) % 4);
  }
  const auto parts = PartitionUnits(WeightedUnits(weights), 4);
  std::vector<double> loads(4, 0.0);
  for (int s = 0; s < 4; ++s) {
    for (size_t index : parts[s]) {
      loads[s] += weights[index];
    }
  }
  double lo = loads[0], hi = loads[0];
  for (double load : loads) {
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  EXPECT_LE(hi - lo, 6.0);  // max single weight.
}

// One island: a simulator with a self-rescheduling task accumulating a
// deterministic trace of (time, tick) pairs.
struct Island {
  Simulator sim;
  std::vector<double> trace;
  void Start(double period, double offset) {
    sim.SchedulePeriodic(offset, period, [this] { trace.push_back(sim.Now()); });
  }
};

TEST(ShardedEngineTest, WindowedAdvanceMatchesSingleRunUntil) {
  // Reference: advance each island in one RunUntil call.
  std::vector<Island> reference(5);
  for (size_t i = 0; i < reference.size(); ++i) {
    reference[i].Start(0.7 + 0.1 * i, 0.3 * i);
    reference[i].sim.RunUntil(100.0);
  }

  for (int shards : {1, 2, 4}) {
    std::vector<Island> islands(5);
    std::vector<ShardUnit> units;
    for (size_t i = 0; i < islands.size(); ++i) {
      islands[i].Start(0.7 + 0.1 * i, 0.3 * i);
      ShardUnit unit;
      unit.slot = static_cast<int>(i);
      unit.weight = 1.0 + i;
      Island* island = &islands[i];
      unit.advance = [island](double end) { island->sim.RunUntil(end); };
      units.push_back(std::move(unit));
    }
    ShardPool pool(shards);
    ShardedEngine engine(&pool);
    engine.Advance(units, 0.0, 100.0, 2.0);
    EXPECT_EQ(engine.windows_run(), 50u);
    for (size_t i = 0; i < islands.size(); ++i) {
      EXPECT_EQ(islands[i].sim.Now(), reference[i].sim.Now());
      EXPECT_EQ(islands[i].trace, reference[i].trace)
          << "island " << i << " at shards=" << shards;
    }
  }
}

TEST(ShardedEngineTest, FinalWindowClampsToHorizon) {
  Island island;
  island.Start(1.0, 0.5);
  std::vector<ShardUnit> units;
  ShardUnit unit;
  unit.slot = 0;
  unit.advance = [&island](double end) { island.sim.RunUntil(end); };
  units.push_back(std::move(unit));

  ShardPool pool(2);
  ShardedEngine engine(&pool);
  std::vector<double> ends;
  engine.Advance(units, 0.0, 7.0, 3.0,
                 [&ends](double end) { ends.push_back(end); });
  EXPECT_EQ(ends, (std::vector<double>{3.0, 6.0, 7.0}));
  EXPECT_EQ(island.sim.Now(), 7.0);
}

TEST(ShardedEngineTest, BarrierHookSeesAllIslandsAtRest) {
  std::vector<Island> islands(4);
  std::vector<ShardUnit> units;
  for (size_t i = 0; i < islands.size(); ++i) {
    islands[i].Start(0.25, 0.0);
    ShardUnit unit;
    unit.slot = static_cast<int>(i);
    Island* island = &islands[i];
    unit.advance = [island](double end) { island->sim.RunUntil(end); };
    units.push_back(std::move(unit));
  }
  ShardPool pool(3);
  ShardedEngine engine(&pool);
  int hooks = 0;
  engine.Advance(units, 0.0, 10.0, 2.0, [&](double end) {
    ++hooks;
    for (Island& island : islands) {
      EXPECT_EQ(island.sim.Now(), end);  // no island ahead of the window.
    }
  });
  EXPECT_EQ(hooks, 5);
  EXPECT_EQ(engine.windows_run(), 5u);
}

TEST(ShardedEngineTest, NonPositiveWindowCollapsesToOneWindow) {
  Island island;
  island.Start(1.0, 0.5);
  std::vector<ShardUnit> units;
  ShardUnit unit;
  unit.slot = 0;
  unit.advance = [&island](double end) { island.sim.RunUntil(end); };
  units.push_back(std::move(unit));
  ShardPool pool(1);
  ShardedEngine engine(&pool);
  engine.Advance(units, 0.0, 25.0, 0.0);
  EXPECT_EQ(engine.windows_run(), 1u);
  EXPECT_EQ(island.sim.Now(), 25.0);
}

}  // namespace
}  // namespace rhythm

#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace rhythm {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, TiesBreakInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(5.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.Schedule(2.5, [&] { seen = sim.Now(); });
  sim.RunUntil(100.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(1.0, [&] {
    sim.Schedule(-5.0, [&] { EXPECT_DOUBLE_EQ(sim.Now(), 1.0); });
  });
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(3.0, [&] {
    sim.ScheduleAt(1.0, [&] { EXPECT_DOUBLE_EQ(sim.Now(), 3.0); });
  });
  sim.RunUntil(4.0);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, RunUntilBoundaryInclusive) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(5.0, [&] { ran = true; });
  sim.RunUntil(5.0);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventsBeyondHorizonStayPending) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(5.0, [&] { ran = true; });
  sim.RunUntil(4.999);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(5.0);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.Schedule(1.0, recurse);
    }
  };
  sim.Schedule(1.0, recurse);
  sim.RunUntil(100.0);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(SimulatorTest, PeriodicTaskFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.SchedulePeriodic(2.0, 2.0, [&] { ++count; });
  sim.RunUntil(10.0);
  EXPECT_EQ(count, 5);  // fires at 2, 4, 6, 8, 10.
}

TEST(SimulatorTest, CancelPeriodicStopsFiring) {
  Simulator sim;
  int count = 0;
  const uint64_t id = sim.SchedulePeriodic(1.0, 1.0, [&] { ++count; });
  sim.Schedule(3.5, [&] { sim.CancelPeriodic(id); });
  sim.RunUntil(10.0);
  EXPECT_EQ(count, 3);  // fires at 1, 2, 3; cancelled before 4.
}

TEST(SimulatorTest, TwoPeriodicTasksIndependent) {
  Simulator sim;
  int a = 0;
  int b = 0;
  sim.SchedulePeriodic(1.0, 1.0, [&] { ++a; });
  const uint64_t id = sim.SchedulePeriodic(1.0, 2.0, [&] { ++b; });
  sim.CancelPeriodic(id);
  sim.RunUntil(4.0);
  EXPECT_EQ(a, 4);
  EXPECT_EQ(b, 0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CancelledBookkeepingCompactsWhenLastFiringDrains) {
  Simulator sim;
  const uint64_t id = sim.SchedulePeriodic(1.0, 1.0, [] {});
  sim.RunUntil(2.0);
  sim.CancelPeriodic(id);
  EXPECT_EQ(sim.cancelled_pending_count(), 1u);
  // The task's one in-flight event (armed for t=3) drains the entry.
  sim.RunUntil(3.0);
  EXPECT_EQ(sim.cancelled_pending_count(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancellationsDoNotAccumulateAcrossLongRuns) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = sim.SchedulePeriodic(sim.Now() + 1.0, 1.0, [] {});
    sim.CancelPeriodic(id);
    sim.RunUntil(sim.Now() + 2.0);
  }
  EXPECT_EQ(sim.cancelled_pending_count(), 0u);
}

TEST(SimulatorTest, CancelBogusIdIsIgnored) {
  Simulator sim;
  sim.CancelPeriodic(0);
  sim.CancelPeriodic(42);  // never handed out — nothing to suppress.
  EXPECT_EQ(sim.cancelled_pending_count(), 0u);
  int count = 0;
  sim.SchedulePeriodic(1.0, 1.0, [&] { ++count; });
  sim.RunUntil(3.0);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace rhythm

// The partitioned cluster engine: bit-identical summaries at any shard
// count, slot-order-merged barrier snapshots for the top-controller hook,
// and the synthetic datacenter-scale spec.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/control/machine_agent.h"
#include "src/place/cluster_engine.h"

namespace rhythm {
namespace {

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

ClusterSummary RunAtShards(const ClusterRunRequest& request, int shards) {
  RunnerOptions options;
  options.shards = shards;
  return RunCluster(request, options);
}

void ExpectBitIdentical(const ClusterSummary& a, const ClusterSummary& b) {
  EXPECT_EQ(a.emu, b.emu);
  EXPECT_EQ(a.lc_throughput, b.lc_throughput);
  EXPECT_EQ(a.be_throughput, b.be_throughput);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.membw_util, b.membw_util);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.be_kills, b.be_kills);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.worst_tail_ratio, b.worst_tail_ratio);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].summary.emu, b.groups[i].summary.emu);
    EXPECT_EQ(a.groups[i].summary.worst_tail_ms,
              b.groups[i].summary.worst_tail_ms);
    EXPECT_EQ(a.groups[i].summary.sla_violations,
              b.groups[i].summary.sla_violations);
    EXPECT_EQ(a.groups[i].summary.be_kills, b.groups[i].summary.be_kills);
  }
  ASSERT_EQ(a.recording.events.size(), b.recording.events.size());
  for (size_t i = 0; i < a.recording.events.size(); ++i) {
    EXPECT_EQ(a.recording.events[i].time_s, b.recording.events[i].time_s);
    EXPECT_EQ(a.recording.events[i].code, b.recording.events[i].code);
    EXPECT_EQ(a.recording.events[i].a, b.recording.events[i].a);
    EXPECT_EQ(a.recording.events[i].b, b.recording.events[i].b);
  }
}

TEST(ShardedClusterTest, ShardCountDoesNotChangeResults) {
  // The tentpole guarantee: RHYTHM_SHARDS is a performance knob only.
  for (const char* policy : {kPolicyRhythmAware, kPolicyBinPacking}) {
    ClusterRunRequest request = SmallRequest(policy);
    request.epochs = 2;
    const ClusterSummary serial = RunAtShards(request, 1);
    for (int shards : {2, 3, 8}) {
      SCOPED_TRACE(std::string(policy) + " shards=" + std::to_string(shards));
      ExpectBitIdentical(serial, RunAtShards(request, shards));
    }
  }
}

TEST(ShardedClusterTest, TickHookObservesMergedBarrierSnapshots) {
  ClusterRunRequest request = SmallRequest(kPolicyRhythmAware);
  request.epochs = 2;

  std::vector<ClusterTickSnapshot> snaps;
  request.on_tick = [&snaps](const ClusterTickSnapshot& snap) {
    snaps.push_back(snap);
  };
  const ClusterSummary summary = RunAtShards(request, 3);

  const double span = request.warmup_s + request.measure_s;
  const size_t windows_per_epoch =
      static_cast<size_t>(span / MachineAgent::kPeriodSeconds);
  ASSERT_EQ(snaps.size(), windows_per_epoch * 2);

  uint64_t last_window = 0;
  for (size_t i = 0; i < snaps.size(); ++i) {
    const ClusterTickSnapshot& snap = snaps[i];
    EXPECT_EQ(snap.epoch, static_cast<int>(i / windows_per_epoch));
    EXPECT_GT(snap.window, last_window);  // strictly advancing barriers.
    last_window = snap.window;
    EXPECT_GT(snap.window_end_s, 0.0);
    EXPECT_LE(snap.window_end_s, span);
    EXPECT_EQ(snap.time_s, snap.epoch * span + snap.window_end_s);
    EXPECT_EQ(snap.groups_running, summary.groups_placed / 2);
  }

  // Within one epoch the merged counters are cumulative, so non-decreasing.
  for (size_t i = 1; i < windows_per_epoch; ++i) {
    EXPECT_GE(snaps[i].sla_violations, snaps[i - 1].sla_violations);
    EXPECT_GE(snaps[i].be_kills, snaps[i - 1].be_kills);
  }

  // And the hook's view is shard-count invariant too.
  std::vector<ClusterTickSnapshot> serial_snaps;
  request.on_tick = [&serial_snaps](const ClusterTickSnapshot& snap) {
    serial_snaps.push_back(snap);
  };
  RunAtShards(request, 1);
  ASSERT_EQ(serial_snaps.size(), snaps.size());
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(serial_snaps[i].sla_violations, snaps[i].sla_violations);
    EXPECT_EQ(serial_snaps[i].be_kills, snaps[i].be_kills);
    EXPECT_EQ(serial_snaps[i].slack_violation_ticks,
              snaps[i].slack_violation_ticks);
    EXPECT_EQ(serial_snaps[i].groups_running, snaps[i].groups_running);
  }
}

TEST(ShardedClusterTest, FirstErrorPropagatesFromLowestSlot) {
  // Trial construction errors must surface lowest slot first, exactly like
  // the flat runner's lowest-plan-index contract. Demand order gives
  // kEcommerce slot 0 and kSolr slot 3; both providers throw, and slot 0's
  // message is the one the caller sees — at every shard count.
  ClusterRunRequest request = SmallRequest(kPolicyBinPacking);
  request.model_provider = [](LcAppKind app) -> AppPlacementModel {
    if (app == LcAppKind::kEcommerce) {
      throw std::invalid_argument("no model for ecommerce");
    }
    if (app == LcAppKind::kSolr) {
      throw std::invalid_argument("no model for solr");
    }
    return StubModel(app);
  };
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    try {
      RunAtShards(request, shards);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "no model for ecommerce");
    }
  }
}

TEST(SyntheticClusterSpecTest, IsDeterministicAndSized) {
  const ClusterSpec a = SyntheticClusterSpec(1000, 5);
  const ClusterSpec b = SyntheticClusterSpec(1000, 5);
  EXPECT_EQ(a.machines, 1000);
  ASSERT_EQ(a.lc_demand.size(), b.lc_demand.size());
  for (size_t i = 0; i < a.lc_demand.size(); ++i) {
    EXPECT_EQ(a.lc_demand[i].app, b.lc_demand[i].app);
    EXPECT_EQ(a.lc_demand[i].load, b.lc_demand[i].load);
  }
  ASSERT_EQ(a.be_backlog.size(), b.be_backlog.size());
  for (size_t i = 0; i < a.be_backlog.size(); ++i) {
    EXPECT_EQ(a.be_backlog[i].weight, b.be_backlog[i].weight);
  }

  // Mild oversubscription: demanded pods land in (machines, machines * 1.2).
  EXPECT_GT(a.TotalPods(), 1000);
  EXPECT_LT(a.TotalPods(), 1200);
  EXPECT_GT(a.TotalGroups(), 250);  // group granularity worth sharding.

  // Loads stay in placeable range and the mix is heterogeneous.
  bool tight = false;
  for (const LcGroupDemand& demand : a.lc_demand) {
    EXPECT_GT(demand.load, 0.0);
    EXPECT_LE(demand.load, 0.9);
    tight = tight || demand.load >= 0.7;
  }
  EXPECT_TRUE(tight);

  // Different seeds draw different demand.
  const ClusterSpec c = SyntheticClusterSpec(1000, 6);
  bool differs = c.lc_demand.size() != a.lc_demand.size();
  for (size_t i = 0; !differs && i < a.lc_demand.size(); ++i) {
    differs = a.lc_demand[i].app != c.lc_demand[i].app ||
              a.lc_demand[i].load != c.lc_demand[i].load;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace rhythm

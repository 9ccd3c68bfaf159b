// Trial: the windowed execution seam under Run() and the partitioned
// cluster engine. Windowed AdvanceTo sequences are bit-identical to one
// Run() call however the windows align with the warmup boundary, and the
// chunked ParallelRunner handles thousand-entry plans.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/runner/runner.h"
#include "src/runner/trial.h"

namespace rhythm {
namespace {

RunRequest TinyRequest() {
  RunRequest request;
  request.app = LcAppKind::kRedis;
  request.be = BeJobKind::kCpuStress;
  request.seed = 11;
  request.warmup_s = 3.0;
  request.measure_s = 9.0;
  request.load = 0.5;
  return request;
}

void ExpectSameSummary(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.emu, b.emu);
  EXPECT_EQ(a.lc_throughput, b.lc_throughput);
  EXPECT_EQ(a.be_throughput, b.be_throughput);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.membw_util, b.membw_util);
  EXPECT_EQ(a.worst_tail_ms, b.worst_tail_ms);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.be_kills, b.be_kills);
}

TEST(TrialTest, WindowedAdvanceMatchesSingleRun) {
  const RunRequest request = TinyRequest();
  const RunSummary reference = rhythm::Run(request);

  // Windows aligned with the controller tick, misaligned with the warmup
  // boundary, and absurdly fine — all must reproduce Run() exactly.
  for (double window : {2.0, 1.7, 0.25}) {
    SCOPED_TRACE(window);
    Trial trial(request);
    trial.Start();
    double now = 0.0;
    while (now < trial.end_time()) {
      now += window;
      trial.AdvanceTo(now);
    }
    ExpectSameSummary(reference, trial.Finish());
  }
}

TEST(TrialTest, FinishWithoutExplicitAdvanceRunsToEnd) {
  const RunRequest request = TinyRequest();
  Trial trial(request);
  trial.Start();
  ExpectSameSummary(rhythm::Run(request), trial.Finish());
}

TEST(TrialTest, ValidatesAtConstruction) {
  RunRequest bad = TinyRequest();
  bad.measure_s = 0.0;
  EXPECT_THROW(Trial trial(bad), std::invalid_argument);
}

TEST(ParallelRunnerTest, ThousandEntryPlanMatchesSerial) {
  // The chunked claim path (chunk > 1 kicks in at plans this large) must
  // return plan-order bit-identical results. Trials are tiny so the stress
  // is on scheduling, not simulation.
  RunRequest prototype = TinyRequest();
  prototype.warmup_s = 0.0;
  prototype.measure_s = 2.0;
  prototype.load = 0.3;
  RunPlan plan;
  plan.AddTrials(prototype, 1000, 77);
  ASSERT_EQ(plan.size(), 1000u);

  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions wide;
  wide.jobs = 8;
  const std::vector<RunSummary> a = ParallelRunner(serial).RunAll(plan);
  const std::vector<RunSummary> b = ParallelRunner(wide).RunAll(plan);
  ASSERT_EQ(a.size(), 1000u);
  ASSERT_EQ(b.size(), 1000u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].emu, b[i].emu) << "trial " << i;
    ASSERT_EQ(a[i].worst_tail_ms, b[i].worst_tail_ms) << "trial " << i;
  }
}

TEST(ParallelRunnerTest, FirstErrorWinsOnLargeChunkedPlans) {
  // Malformed trials scattered through a large plan: the lowest plan index
  // must be the one reported, regardless of chunk interleaving.
  RunRequest good = TinyRequest();
  good.warmup_s = 0.0;
  good.measure_s = 2.0;
  RunPlan plan;
  plan.AddTrials(good, 600, 5);
  plan.requests[100].measure_s = -1.0;  // lowest bad index.
  plan.requests[500].measure_s = -1.0;
  RunnerOptions wide;
  wide.jobs = 8;
  try {
    ParallelRunner(wide).RunAll(plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("measure_s"), std::string::npos);
  }
}

}  // namespace
}  // namespace rhythm

#include "src/cluster/profiler.h"

#include <gtest/gtest.h>

#include "src/cluster/deployment.h"
#include "src/trace/event_log.h"
#include "src/trace/sojourn_extractor.h"
#include "src/workload/component.h"

namespace rhythm {
namespace {

ProfileOptions FastOptions() {
  ProfileOptions options;
  options.warmup_s = 5.0;
  options.measure_s = 25.0;
  return options;
}

TEST(ProfilerTest, DefaultLevelsCoverSweep) {
  const auto levels = DefaultProfileLevels();
  EXPECT_EQ(levels.size(), 19u);
  EXPECT_DOUBLE_EQ(levels.front(), 0.05);
  EXPECT_DOUBLE_EQ(levels.back(), 0.95);
}

TEST(ProfilerTest, SojournMeansTrackModel) {
  const std::vector<double> levels = {0.2, 0.6};
  const ProfileResult result = ProfileSolo(LcAppKind::kEcommerce, levels, FastOptions());
  const AppSpec app = MakeApp(LcAppKind::kEcommerce);
  ASSERT_EQ(result.matrix.pod_sojourn_ms.size(), 4u);
  for (int pod = 0; pod < 4; ++pod) {
    for (size_t level = 0; level < levels.size(); ++level) {
      const double expected =
          ComponentModel(app.components[pod]).EffectiveServiceMs(levels[level], 1.0);
      EXPECT_NEAR(result.matrix.pod_sojourn_ms[pod][level], expected, expected * 0.15 + 0.5)
          << app.components[pod].name << " @" << levels[level];
    }
  }
}

TEST(ProfilerTest, TailGrowsWithLoad) {
  const std::vector<double> levels = {0.1, 0.5, 0.9};
  const ProfileResult result = ProfileSolo(LcAppKind::kEcommerce, levels, FastOptions());
  EXPECT_LT(result.matrix.tail_ms[0], result.matrix.tail_ms[1]);
  EXPECT_LT(result.matrix.tail_ms[1], result.matrix.tail_ms[2]);
  EXPECT_GT(result.requests_profiled, 10000u);
}

TEST(ProfilerTest, MysqlSojournOvertakesTomcatAtHighLoad) {
  // Figure 6a's crossover: MySQL is cheaper than Tomcat at low load but its
  // sojourn grows faster and overtakes past ~50%.
  const std::vector<double> levels = {0.1, 0.95};
  const ProfileResult result = ProfileSolo(LcAppKind::kEcommerce, levels, FastOptions());
  const int tomcat = 1;
  const int mysql = 3;
  EXPECT_LT(result.matrix.pod_sojourn_ms[mysql][0], result.matrix.pod_sojourn_ms[tomcat][0]);
  EXPECT_GT(result.matrix.pod_sojourn_ms[mysql][1], result.matrix.pod_sojourn_ms[tomcat][1]);
}

TEST(ProfilerTest, CovCurvesRiseForBottleneckPod) {
  const std::vector<double> levels = {0.1, 0.95};
  const ProfileResult result = ProfileSolo(LcAppKind::kEcommerce, levels, FastOptions());
  const int mysql = 3;
  EXPECT_GT(result.pod_cov[mysql][1], result.pod_cov[mysql][0] * 1.2);
}

TEST(ProfilerTest, TracerAndDirectAgree) {
  // The tracer path (kernel events + mean extraction) and the direct
  // recording path must produce the same sojourn matrix.
  const std::vector<double> levels = {0.4};
  ProfileOptions with_tracer = FastOptions();
  with_tracer.use_tracer = true;
  ProfileOptions without_tracer = FastOptions();
  without_tracer.use_tracer = false;
  const ProfileResult traced = ProfileSolo(LcAppKind::kSolr, levels, with_tracer);
  const ProfileResult direct = ProfileSolo(LcAppKind::kSolr, levels, without_tracer);
  for (int pod = 0; pod < 2; ++pod) {
    EXPECT_NEAR(traced.matrix.pod_sojourn_ms[pod][0], direct.matrix.pod_sojourn_ms[pod][0],
                direct.matrix.pod_sojourn_ms[pod][0] * 0.03 + 0.1);
  }
}

// The profile as it was taken before the tracer's events were folded into a
// sink while they are emitted: buffer each level's measured events in an
// EventLog and extract the mean sojourns from the whole log afterwards.
ProfileResult BufferedProfile(LcAppKind app_kind, const std::vector<double>& levels,
                              const ProfileOptions& options) {
  ProfileResult result;
  result.levels = levels;
  const int pods = MakeApp(app_kind).pod_count();
  result.matrix.pod_sojourn_ms.assign(pods, {});
  result.pod_cov.assign(pods, {});
  result.matrix.load_levels = levels;
  for (size_t level = 0; level < levels.size(); ++level) {
    EventLog log;
    DeploymentConfig config;
    config.app_kind = app_kind;
    config.controller = ControllerKind::kNone;
    config.enable_be = false;
    config.record_sojourns = true;
    config.seed = options.seed + level * 1009;
    config.tail_window_s = options.measure_s;
    config.sink = &log;
    config.noise_events_per_request = options.noise_events_per_request;
    Deployment deployment(config);
    const ConstantLoad profile(levels[level]);
    deployment.Start(&profile);
    deployment.RunFor(options.warmup_s);
    deployment.service().ResetSojourns();
    log.Clear();
    deployment.RunFor(options.measure_s);
    const SojournSummary summary =
        ExtractMeanSojourns(log.events(), TracerConfig{.program_base = 100, .num_pods = pods});
    for (int pod = 0; pod < pods; ++pod) {
      result.matrix.pod_sojourn_ms[pod].push_back(summary.mean_sojourn_s[pod] * 1000.0);
      result.pod_cov[pod].push_back(deployment.service().PodSojournStats(pod).cov());
    }
    result.matrix.tail_ms.push_back(deployment.service().TailLatencyMs());
    result.requests_profiled += deployment.service().completed_requests();
  }
  return result;
}

TEST(ProfilerTest, StreamingMatchesBufferedCapture) {
  // The sink stays attached exactly where the log was, so the service draws
  // the same message and noise randoms and every number is unchanged — no
  // tolerance.
  const std::vector<double> levels = {0.3, 0.85};
  const ProfileResult streamed = ProfileSolo(LcAppKind::kEcommerce, levels, FastOptions());
  const ProfileResult buffered = BufferedProfile(LcAppKind::kEcommerce, levels, FastOptions());
  EXPECT_EQ(streamed.levels, buffered.levels);
  EXPECT_EQ(streamed.matrix.load_levels, buffered.matrix.load_levels);
  EXPECT_EQ(streamed.matrix.pod_sojourn_ms, buffered.matrix.pod_sojourn_ms);
  EXPECT_EQ(streamed.matrix.tail_ms, buffered.matrix.tail_ms);
  EXPECT_EQ(streamed.pod_cov, buffered.pod_cov);
  EXPECT_EQ(streamed.requests_profiled, buffered.requests_profiled);
}

TEST(ProfilerTest, BuiltinTracingAppSkipsTracer) {
  // SNMS has jaeger: the profiler must work (and use direct recording) even
  // when use_tracer is requested.
  const std::vector<double> levels = {0.3};
  ProfileOptions options = FastOptions();
  options.use_tracer = true;
  const ProfileResult result = ProfileSolo(LcAppKind::kSnms, levels, options);
  for (int pod = 0; pod < 3; ++pod) {
    EXPECT_GT(result.matrix.pod_sojourn_ms[pod][0], 0.0);
  }
}

}  // namespace
}  // namespace rhythm

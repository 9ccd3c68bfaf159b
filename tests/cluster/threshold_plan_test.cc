// DeriveAppThresholds as one plan against the serial search it replaced:
// a multi-app plan at width 1 and at width 4 must equal, in every limit,
// contribution field and profile value, each app's solo profile followed by
// FindSlacklimits driven serially by the same probe function, each probe
// drawing the next seed. Profile and probe windows are down-scaled for test
// runtime, as in AppThresholdsTest.FreshDerivationAttachesProfile.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/cluster/app_thresholds.h"

namespace rhythm {
namespace {

// Near saturation, the second probe load violates within the short window:
// SNMS stops at iteration 1, Elasticsearch at iteration 2, and Elgg runs to
// the floor, so each of the plan's three outcomes is decided.
ThresholdOptions DownScaled() {
  ThresholdOptions options;
  options.profile.measure_s = 15.0;
  options.probe_measure_s = 30.0;
  options.probe_loads = {0.45, 0.93};
  return options;
}

// DeriveAppThresholds as a serial chain: profile, contributions,
// loadlimits, then Algorithm 1 probing one candidate at a time.
// Counts the probes run and sets *stopped when one violated.
AppThresholds SerialDerivation(LcAppKind app_kind, const ThresholdOptions& options,
                               int* probes_run, bool* stopped) {
  AppThresholds result;
  result.app = app_kind;
  const AppSpec app = MakeApp(app_kind);
  result.profile = ProfileSolo(app_kind, DefaultProfileLevels(), options.profile);
  result.contributions = AnalyzeContributions(result.profile.matrix, app.call_root);
  result.pods.resize(app.pod_count());
  for (int pod = 0; pod < app.pod_count(); ++pod) {
    result.pods[pod].loadlimit =
        DeriveLoadlimit(result.profile.levels, result.profile.pod_cov[pod]);
  }
  uint64_t probe_seed = options.profile.seed * 7919;
  const SlaProbe probe = [&](const std::vector<double>& slacklimits) {
    std::vector<ServpodThresholds> thresholds = result.pods;
    for (size_t pod = 0; pod < thresholds.size(); ++pod) {
      thresholds[pod].slacklimit = slacklimits[pod];
    }
    for (double load : options.probe_loads) {
      for (BeJobKind be : options.probe_bes) {
        ++*probes_run;
        if (SlacklimitProbeViolates(app_kind, thresholds, load, be, ++probe_seed, options)) {
          *stopped = true;
          return true;
        }
      }
    }
    return false;
  };
  const std::vector<double> slacklimits = FindSlacklimits(
      NormalizedContributions(result.contributions), probe, options.max_iterations);
  for (size_t pod = 0; pod < result.pods.size(); ++pod) {
    result.pods[pod].slacklimit = slacklimits[pod];
  }
  return result;
}

void ExpectSameCharacterization(const AppThresholds& plan, const AppThresholds& serial) {
  SCOPED_TRACE(LcAppKindName(serial.app));
  EXPECT_EQ(plan.app, serial.app);
  ASSERT_EQ(plan.pods.size(), serial.pods.size());
  ASSERT_EQ(plan.contributions.size(), serial.contributions.size());
  for (size_t pod = 0; pod < serial.pods.size(); ++pod) {
    SCOPED_TRACE(pod);
    EXPECT_EQ(plan.pods[pod].loadlimit, serial.pods[pod].loadlimit);
    EXPECT_EQ(plan.pods[pod].slacklimit, serial.pods[pod].slacklimit);
    const PodContribution& a = plan.contributions[pod];
    const PodContribution& b = serial.contributions[pod];
    EXPECT_EQ(a.contribution, b.contribution);
    EXPECT_EQ(a.weight_p, b.weight_p);
    EXPECT_EQ(a.correlation_rho, b.correlation_rho);
    EXPECT_EQ(a.varcoef_v, b.varcoef_v);
    EXPECT_EQ(a.alpha, b.alpha);
  }
  EXPECT_EQ(plan.profile.matrix.pod_sojourn_ms, serial.profile.matrix.pod_sojourn_ms);
  EXPECT_EQ(plan.profile.matrix.tail_ms, serial.profile.matrix.tail_ms);
  EXPECT_EQ(plan.profile.pod_cov, serial.profile.pod_cov);
  EXPECT_EQ(plan.profile.requests_profiled, serial.profile.requests_profiled);
}

TEST(ThresholdPlanTest, MultiAppPlanEqualsTheSerialSearchAtWidthOneAndFour) {
  const ThresholdOptions options = DownScaled();
  // Not in enum order: results follow the list.
  const std::vector<LcAppKind> apps = {LcAppKind::kSnms, LcAppKind::kElasticsearch,
                                       LcAppKind::kElgg};
  std::vector<AppThresholds> serial;
  int probes_run = 0;
  bool stopped = false;
  for (LcAppKind app : apps) {
    serial.push_back(SerialDerivation(app, options, &probes_run, &stopped));
  }
  // Some app must stop at a violating iteration, so the plan's skipping
  // rule decides an answer.
  EXPECT_TRUE(stopped);
  EXPECT_GT(probes_run, 0);

  const char* saved = std::getenv("RHYTHM_JOBS");
  const std::string saved_jobs = saved != nullptr ? saved : "";
  for (const char* jobs : {"1", "4"}) {
    SCOPED_TRACE(std::string("RHYTHM_JOBS=") + jobs);
    ::setenv("RHYTHM_JOBS", jobs, 1);
    const std::vector<AppThresholds> plan = DeriveAppThresholds(apps, options);
    ASSERT_EQ(plan.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
      ExpectSameCharacterization(plan[i], serial[i]);
    }
  }
  if (saved != nullptr) {
    ::setenv("RHYTHM_JOBS", saved_jobs.c_str(), 1);
  } else {
    ::unsetenv("RHYTHM_JOBS");
  }
}

}  // namespace
}  // namespace rhythm

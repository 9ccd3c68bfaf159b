// RhythmDaemon's parallel prewarm: every distinct app in DaemonOptions::
// prewarm is loaded into the process-wide threshold cache before the port
// opens, on a pool no wider than the app count. Entries are pre-seeded in a
// private RHYTHM_THRESHOLD_CACHE (the ThresholdCacheConcurrencyTest
// pattern), so nothing is characterized and the cached values are
// recognizably synthetic. Each test prewarms in a fresh process, so no
// other test has filled the cache before it.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/serve/daemon.h"
#include "tests/fresh_process.h"

namespace rhythm {
namespace {

class DaemonPrewarmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = ::testing::TempDir() + "rhythm_prewarm_cache_test";
    ::mkdir(dir.c_str(), 0755);
    ::setenv("RHYTHM_THRESHOLD_CACHE", dir.c_str(), 1);
    // Distinct values per app and per pod, so a mixed-up slot shows.
    for (LcAppKind app : AllLcAppKinds()) {
      const int pods = MakeApp(app).pod_count();
      AppThresholds thresholds;
      thresholds.app = app;
      thresholds.contributions.resize(pods);
      for (int pod = 0; pod < pods; ++pod) {
        const double loadlimit = 0.5 + 0.01 * static_cast<int>(app) + 0.001 * pod;
        const double slacklimit = 0.05 + 0.003 * static_cast<int>(app) + 0.0001 * pod;
        thresholds.pods.push_back(ServpodThresholds{loadlimit, slacklimit});
        expected_[app].push_back(ServpodThresholds{loadlimit, slacklimit});
      }
      SaveThresholdsToDisk(ThresholdDiskCachePath(app), thresholds);
    }
  }

  void TearDown() override { ::unsetenv("RHYTHM_THRESHOLD_CACHE"); }

  std::map<LcAppKind, std::vector<ServpodThresholds>> expected_;
};

TEST_F(DaemonPrewarmTest, EveryListedAppHoldsItsSeededValues) {
  testing::InFreshProcess([this] {
    DaemonOptions options;
    options.server.host = "127.0.0.1";
    options.server.port = 0;
    options.prewarm = AllLcAppKinds();
    options.prewarm.push_back(LcAppKind::kRedis);  // listed twice, loaded once.

    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    const auto all = CharacterizedAppThresholds();
    daemon.Stop();

    ASSERT_EQ(all.size(), expected_.size());
    for (const AppThresholds& record : all) {
      SCOPED_TRACE(LcAppKindName(record.app));
      const std::vector<ServpodThresholds>& pods = record.pods;
      const std::vector<ServpodThresholds>& seeded = expected_.at(record.app);
      ASSERT_EQ(pods.size(), seeded.size());
      for (size_t pod = 0; pod < pods.size(); ++pod) {
        EXPECT_EQ(pods[pod].loadlimit, seeded[pod].loadlimit);
        EXPECT_EQ(pods[pod].slacklimit, seeded[pod].slacklimit);
      }
    }
  });
}

TEST_F(DaemonPrewarmTest, UnlistedAppsStayCold) {
  testing::InFreshProcess([this] {
    DaemonOptions options;
    options.server.host = "127.0.0.1";
    options.server.port = 0;
    options.prewarm = {LcAppKind::kSolr, LcAppKind::kElgg, LcAppKind::kSolr};

    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    const auto all = CharacterizedAppThresholds();
    daemon.Stop();

    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].app, LcAppKind::kSolr);
    EXPECT_EQ(all[1].app, LcAppKind::kElgg);
    for (const AppThresholds& record : all) {
      const std::vector<ServpodThresholds>& pods = record.pods;
      ASSERT_EQ(pods.size(), expected_.at(record.app).size());
      for (size_t pod = 0; pod < pods.size(); ++pod) {
        EXPECT_EQ(pods[pod].loadlimit, expected_.at(record.app)[pod].loadlimit);
        EXPECT_EQ(pods[pod].slacklimit, expected_.at(record.app)[pod].slacklimit);
      }
    }
  });
}

}  // namespace
}  // namespace rhythm

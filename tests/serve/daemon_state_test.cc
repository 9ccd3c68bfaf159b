#include "src/serve/daemon.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "tests/fresh_process.h"
#include "tests/serve/http_client.h"

namespace rhythm {
namespace {

using testing::Fetch;
using testing::InFreshProcess;
using testing::TestResponse;

// This run's tag: the pid of the process that started the run. It goes
// into the environment at start-up, before any test forks, so a
// fresh-process child reads its parent's tag: a test and the children that
// re-run it meet at one path, while separate runs stay apart.
const std::string kRunTag = [] {
  const char* inherited = std::getenv("RHYTHM_SERVE_TEST_RUN");
  if (inherited != nullptr && *inherited != '\0') {
    return std::string(inherited);
  }
  std::string own = std::to_string(::getpid());
  ::setenv("RHYTHM_SERVE_TEST_RUN", own.c_str(), 1);
  return own;
}();

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("rhythm_serve_" + name + "_" + kRunTag))
      .string();
}

// A threshold record with `pods` as its limits and default contributions.
AppThresholds Record(LcAppKind app, std::vector<ServpodThresholds> pods) {
  AppThresholds record;
  record.app = app;
  record.contributions.resize(pods.size());
  record.pods = std::move(pods);
  return record;
}

// A record for `app` with its own pod count: the same limit pair and an
// equal contribution on every pod.
AppThresholds Uniform(LcAppKind app, double loadlimit, double slacklimit) {
  const size_t pods = static_cast<size_t>(MakeApp(app).pod_count());
  AppThresholds record = Record(app, std::vector<ServpodThresholds>(pods, {loadlimit, slacklimit}));
  for (PodContribution& contribution : record.contributions) {
    contribution.contribution = 1.0 / static_cast<double>(pods);
    contribution.weight_p = 0.5;
  }
  return record;
}

// A "version":2 snapshot holding `records` and nothing else.
std::string SnapshotOf(const std::vector<AppThresholds>& records) {
  JsonWriter snapshot;
  snapshot.BeginObject().Key("version").Int(2).Key("apps").BeginArray();
  for (const AppThresholds& record : records) {
    WriteThresholdRecord(record, &snapshot);
  }
  snapshot.EndArray().EndObject();
  return std::move(snapshot).str();
}

// Points RHYTHM_THRESHOLD_CACHE at a new, empty directory (for the life of
// the calling process) and returns it.
std::string PrivateEmptyCache(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("RHYTHM_THRESHOLD_CACHE", dir.c_str(), 1);
  return dir;
}

bool SameLimits(const std::vector<ServpodThresholds>& a, const std::vector<ServpodThresholds>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t pod = 0; pod < a.size(); ++pod) {
    if (a[pod].loadlimit != b[pod].loadlimit || a[pod].slacklimit != b[pod].slacklimit) {
      return false;
    }
  }
  return true;
}

// Files beside `path` named `<path>.tmp*`: staging files a save left behind.
int StagingSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      ++count;
    }
  }
  return count;
}

TEST(DaemonSnapshotTest, SaveRestoreRoundTripsThresholdsAndCounters) {
  const std::string path = TempPath("snapshot");

  DaemonOptions options;
  options.server.port = 0;
  // Each side in its own process, as across a restart: the saving one has
  // characterized exactly Solr and Redis, the restoring one nothing yet.
  InFreshProcess([&] {
    ASSERT_TRUE(FillAppThresholds(Record(LcAppKind::kSolr, {{0.7, 0.2}, {0.9, 0.1}})));
    ASSERT_TRUE(FillAppThresholds(Record(LcAppKind::kRedis, {{0.6, 0.3}, {0.6, 0.3}})));
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.SaveSnapshot(path, &error)) << error;
    // Staged write leaves no temp file behind.
    EXPECT_EQ(StagingSiblings(path), 0);
  });

  InFreshProcess([&] {
    RhythmDaemon restored(options);
    std::string error;
    ASSERT_TRUE(restored.RestoreSnapshot(path, &error)) << error;
    const auto& solr = CachedAppThresholds(LcAppKind::kSolr).pods;
    ASSERT_EQ(solr.size(), 2u);
    EXPECT_DOUBLE_EQ(solr[0].loadlimit, 0.7);
    EXPECT_DOUBLE_EQ(solr[1].slacklimit, 0.1);
    const auto& redis = CachedAppThresholds(LcAppKind::kRedis).pods;
    ASSERT_EQ(redis.size(), 2u);
    EXPECT_DOUBLE_EQ(redis[0].slacklimit, 0.3);
  });

  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, ConcurrentSavesToOnePathAllSucceed) {
  // Concurrent /v1/snapshot requests name one path; every save must land,
  // and none may take another's staging file.
  const std::string path = TempPath("concurrent");
  InFreshProcess([&] {
    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    for (LcAppKind app : AllLcAppKinds()) {
      ASSERT_TRUE(FillAppThresholds(Uniform(app, 0.5 + static_cast<int>(app) / 1000.0,
                                            0.1 + static_cast<int>(app) / 7000.0)));
    }

    constexpr int kThreads = 8;
    constexpr int kSavesPerThread = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kSavesPerThread; ++i) {
          std::string error;
          if (!daemon.SaveSnapshot(path, &error)) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(failures.load(), 0);

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJson(text.str(), &doc, &error)) << error;
    const JsonValue* apps = doc.Find("apps");
    ASSERT_NE(apps, nullptr);
    EXPECT_EQ(apps->array.size(), AllLcAppKinds().size());
    EXPECT_EQ(StagingSiblings(path), 0);
  });
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, ThresholdDoublesSurviveBitExactly) {
  const std::string path = TempPath("bits");
  DaemonOptions options;
  options.server.port = 0;
  // Awkward doubles: only %.17g round-trips these exactly.
  const double loadlimit = 0.1 + 0.2;          // 0.30000000000000004
  const double slacklimit = 1.0 / 3.0;
  InFreshProcess([&] {
    RhythmDaemon daemon(options);
    ASSERT_TRUE(FillAppThresholds(Record(LcAppKind::kElgg, {{loadlimit, slacklimit},
                                                            {loadlimit, slacklimit},
                                                            {loadlimit, slacklimit}})));
    std::string error;
    ASSERT_TRUE(daemon.SaveSnapshot(path, &error)) << error;
  });

  InFreshProcess([&] {
    RhythmDaemon restored(options);
    std::string error;
    ASSERT_TRUE(restored.RestoreSnapshot(path, &error)) << error;
    const auto& pods = CachedAppThresholds(LcAppKind::kElgg).pods;
    ASSERT_EQ(pods.size(), 3u);
    EXPECT_EQ(pods[0].loadlimit, loadlimit);    // bit-equal, not approx.
    EXPECT_EQ(pods[0].slacklimit, slacklimit);
  });
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, RestoreRejectsGarbageWithoutMutatingState) {
  // In a fresh process, so the test starts with nothing characterized.
  InFreshProcess([] {
    const std::string path = TempPath("garbage");
    {
      std::ofstream out(path);
      out << "{\"version\":2,\"apps\":[{\"app\":\"NotAnApp\",\"pods\":[]}]}";
    }
    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    std::string error;
    EXPECT_FALSE(daemon.RestoreSnapshot(path, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(CharacterizedAppThresholds().empty());  // nothing half-restored.

    {
      std::ofstream out(path);
      out << "not json at all";
    }
    EXPECT_FALSE(daemon.RestoreSnapshot(path, &error));
    {
      std::ofstream out(path);
      out << "{\"version\":7}";
    }
    EXPECT_FALSE(daemon.RestoreSnapshot(path, &error));
    EXPECT_NE(error.find("version"), std::string::npos);

    // Counters are uint64s read exactly. -1 would wrap audit_seq to 2^64-1,
    // so the next audit record would reuse whatif-1.jsonl; -3 would wrap a
    // served count. An endpoint must be one the daemon serves: /metrics
    // prints the name raw, so "x\"} 1\n…" would add a line
    // rhythmd_injected_total 42. Valid members beside a bad one are not
    // applied either, a valid Elgg record included.
    const std::string injected =
        "\"endpoints\":[{\"endpoint\":\"x\\\"} 1\\nrhythmd_injected_total 42\\n#\","
        "\"served\":1,\"errors\":0}]";
    std::string elgg_and_injected = SnapshotOf({Uniform(LcAppKind::kElgg, 0.5, 0.2)});
    elgg_and_injected.insert(elgg_and_injected.size() - 1, "," + injected);
    const std::string snapshots[] = {
        "{\"version\":2,\"audit_seq\":-1}",
        "{\"version\":2,\"audit_seq\":5,"
        "\"endpoints\":[{\"endpoint\":\"whatif\",\"served\":-3,\"errors\":0}]}",
        "{\"version\":2,\"audit_seq\":5,\"endpoints\":[{\"served\":1,\"errors\":0}]}",
        "{\"version\":2,\"audit_seq\":5,\"endpoints\":[7]}",
        "{\"version\":2,\"audit_seq\":1.5}",
        "{\"version\":2," + injected + "}",
        "{\"version\":2,\"audit_seq\":5,"
        "\"endpoints\":[{\"endpoint\":\"whatif\",\"served\":1,\"errors\":0},"
        "{\"endpoint\":\"whatiff\",\"served\":1,\"errors\":0}]}",
        elgg_and_injected,
    };
    for (const std::string& snapshot : snapshots) {
      ASSERT_TRUE(WriteFile(path, snapshot));
      error.clear();
      EXPECT_FALSE(daemon.RestoreSnapshot(path, &error)) << snapshot;
      EXPECT_FALSE(error.empty());
    }
    EXPECT_EQ(daemon.audit_seq(), 0u);
    const std::string metrics = daemon.MetricsText();
    EXPECT_EQ(metrics.find("endpoint=\"whatif\""), std::string::npos);
    EXPECT_EQ(metrics.find("rhythmd_injected_total"), std::string::npos) << metrics;
    EXPECT_TRUE(CharacterizedAppThresholds().empty());

    EXPECT_FALSE(daemon.RestoreSnapshot(TempPath("missing"), &error));
    std::remove(path.c_str());
  });
}

TEST(DaemonSnapshotTest, AuditSeqNeverRewinds) {
  const std::string path = TempPath("seq");
  {
    std::ofstream out(path);
    out << "{\"version\":2,\"audit_seq\":41}";
  }
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(daemon.audit_seq(), 41u);
  {
    std::ofstream out(path);
    out << "{\"version\":2,\"audit_seq\":7}";
  }
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(daemon.audit_seq(), 41u);  // the older snapshot cannot rewind.
  // Above 2^63, where a signed read would saturate at 2^63-1.
  ASSERT_TRUE(WriteFile(path, "{\"version\":2,\"audit_seq\":9223372036854775809}"));
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(daemon.audit_seq(), 9223372036854775809u);
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, RestoredCountsSaturate) {
  // Restores add to the live counts; a sum past 2^64-1 must not wrap.
  const std::string path = TempPath("saturate");
  ASSERT_TRUE(WriteFile(path,
                        "{\"version\":2,\"endpoints\":[{\"endpoint\":\"whatif\","
                        "\"served\":18446744073709551615,\"errors\":3}]}"));
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  const std::string metrics = daemon.MetricsText();
  EXPECT_NE(metrics.find("rhythmd_queries_served_total{endpoint=\"whatif\"} "
                         "18446744073709551615\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("rhythmd_queries_rejected_total{endpoint=\"whatif\"} 6\n"),
            std::string::npos)
      << metrics;
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, RestoreRejectsRecordsThatDoNotFitTheModel) {
  // Redis has two Servpods. A one-pod record is valid JSON, but restoring
  // it would make every later Redis what-if fail; a record with another
  // model's fingerprint would serve stale limits. Both fail the restore.
  InFreshProcess([] {
    const std::string one_pod = SnapshotOf({Record(LcAppKind::kRedis, {{0.6, 0.3}})});
    std::string stale = SnapshotOf({Record(LcAppKind::kRedis, {{0.6, 0.3}, {0.6, 0.3}})});
    const size_t fingerprint = stale.find("\"fingerprint\":\"") + 15;
    stale.replace(fingerprint, 16, "0123456789abcdef");

    const std::string path = TempPath("mismatch");
    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    for (const std::string& snapshot : {one_pod, stale}) {
      ASSERT_TRUE(WriteFile(path, snapshot));
      error.clear();
      EXPECT_FALSE(daemon.RestoreSnapshot(path, &error)) << snapshot;
      EXPECT_NE(error.find("Redis"), std::string::npos) << error;
      const TestResponse restored =
          Fetch(daemon.port(), "POST", "/v1/restore", "{\"path\":\"" + path + "\"}");
      EXPECT_EQ(restored.status, 422) << restored.body;
    }
    EXPECT_TRUE(CharacterizedAppThresholds().empty());

    // Redis what-ifs answer as if no snapshot had been offered.
    const std::string body =
        "{\"app\":\"Redis\",\"be\":\"wordcount\",\"seed\":7,"
        "\"warmup_s\":2,\"measure_s\":8}";
    const TestResponse served = Fetch(daemon.port(), "POST", "/v1/whatif", body);
    daemon.Stop();
    EXPECT_EQ(served.status, 200) << served.body;
    EXPECT_EQ(served.body, EvalWhatIfJson(body, WhatIfEvalOptions{}));
    EXPECT_EQ(CachedAppThresholds(LcAppKind::kRedis).pods.size(), 2u);
    std::remove(path.c_str());
  });
}

TEST(DaemonSnapshotTest, HttpSnapshotRestoreEndpointsWork) {
  InFreshProcess([] {
    const std::string path = TempPath("http");
    DaemonOptions options;
    options.server.port = 0;
    options.snapshot_path = path;
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    ASSERT_TRUE(FillAppThresholds(
        Record(LcAppKind::kSnms, {{0.8, 0.12}, {0.8, 0.12}, {0.8, 0.12}})));

    const TestResponse saved = Fetch(daemon.port(), "POST", "/v1/snapshot", "{}");
    ASSERT_EQ(saved.status, 200) << saved.body;
    EXPECT_NE(saved.body.find("\"apps\":1"), std::string::npos) << saved.body;
    ASSERT_TRUE(std::filesystem::exists(path));

    const TestResponse restored =
        Fetch(daemon.port(), "POST", "/v1/restore", "{\"path\":\"" + path + "\"}");
    EXPECT_EQ(restored.status, 200) << restored.body;
    EXPECT_NE(restored.body.find("\"apps\":1"), std::string::npos) << restored.body;

    // A missing file is the client's problem, not a crash.
    const TestResponse missing =
        Fetch(daemon.port(), "POST", "/v1/restore", "{\"path\":\"" + TempPath("nope") + "\"}");
    EXPECT_EQ(missing.status, 422);

    // No default and no explicit path: actionable 4xx.
    DaemonOptions bare;
    bare.server.port = 0;
    RhythmDaemon no_default(bare);
    ASSERT_TRUE(no_default.Start(&error)) << error;
    EXPECT_EQ(Fetch(no_default.port(), "POST", "/v1/snapshot", "{}").status, 422);
    no_default.Stop();

    daemon.Stop();
    std::remove(path.c_str());
  });
}

// A small cluster what-if placing one group of `app`.
std::string ClusterBody(const std::string& app) {
  return "{\"kind\":\"cluster\",\"machines\":4,\"policy\":\"rhythm-aware\",\"seed\":3,"
         "\"warmup_s\":1,\"measure_s\":2,\"lc_demand\":[{\"app\":\"" +
         app + "\",\"count\":1,\"load\":0.4}],\"be_backlog\":[{\"be\":\"wordcount\",\"weight\":1}]}";
}

TEST(DaemonSnapshotTest, RestoredAppsAnswerWithoutCharacterizing) {
  // Restored records are the process's records: cluster what-ifs and
  // /v1/placements read them, and an empty disk cache stays empty.
  InFreshProcess([] {
    const std::string cache = PrivateEmptyCache("restored_cache");
    std::vector<AppThresholds> records;
    for (LcAppKind app : AllLcAppKinds()) {
      records.push_back(Uniform(app, 0.6 + 0.01 * static_cast<int>(app), 0.2));
    }
    const std::string path = TempPath("restored");
    ASSERT_TRUE(WriteFile(path, SnapshotOf(records)));

    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;  // as --restore does.
    ASSERT_TRUE(daemon.Start(&error)) << error;
    const TestResponse placements = Fetch(daemon.port(), "GET", "/v1/placements", "");
    const TestResponse cluster =
        Fetch(daemon.port(), "POST", "/v1/whatif", ClusterBody("Redis"));
    daemon.Stop();
    EXPECT_EQ(placements.status, 200) << placements.body;
    EXPECT_NE(placements.body.find("\"app\":\"Elasticsearch\""), std::string::npos);
    EXPECT_EQ(cluster.status, 200) << cluster.body;
    EXPECT_TRUE(std::filesystem::is_empty(cache)) << "a restored app was characterized again";
    for (const AppThresholds& record : records) {
      SCOPED_TRACE(LcAppKindName(record.app));
      EXPECT_TRUE(SameLimits(CachedAppThresholds(record.app).pods, record.pods));
    }
    std::filesystem::remove_all(cache);
    std::remove(path.c_str());
  });
}

TEST(DaemonSnapshotTest, AppFirstCharacterizedByAClusterWhatIfIsSnapshotted) {
  InFreshProcess([] {
    const std::string path = TempPath("cluster");
    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    const TestResponse cluster = Fetch(daemon.port(), "POST", "/v1/whatif", ClusterBody("Elgg"));
    EXPECT_EQ(cluster.status, 200) << cluster.body;
    const TestResponse saved =
        Fetch(daemon.port(), "POST", "/v1/snapshot", "{\"path\":\"" + path + "\"}");
    daemon.Stop();
    ASSERT_EQ(saved.status, 200) << saved.body;
    EXPECT_NE(saved.body.find("\"apps\":1"), std::string::npos) << saved.body;

    std::string text;
    ASSERT_TRUE(ReadFile(path, &text));
    JsonValue doc;
    ASSERT_TRUE(ParseJson(text, &doc, &error)) << error;
    const JsonValue* apps = doc.Find("apps");
    ASSERT_NE(apps, nullptr);
    ASSERT_EQ(apps->array.size(), 1u);
    AppThresholds saved_elgg;
    ASSERT_TRUE(ReadThresholdRecord(apps->array[0], &saved_elgg, &error)) << error;
    EXPECT_EQ(saved_elgg.app, LcAppKind::kElgg);
    EXPECT_TRUE(SameLimits(saved_elgg.pods, CachedAppThresholds(LcAppKind::kElgg).pods));
    std::remove(path.c_str());
  });
}

TEST(DaemonSnapshotTest, RestoreKeepsTheLiveRecordOfACharacterizedApp) {
  // First fill wins: a restore cannot swap the limits under references
  // already handed out, so served bodies keep equalling --oneshot's.
  const AppThresholds& live = CachedAppThresholds(LcAppKind::kElgg);
  const std::vector<ServpodThresholds> live_pods = live.pods;
  AppThresholds other = Uniform(LcAppKind::kElgg, 0.5, 0.2);
  ASSERT_FALSE(SameLimits(other.pods, live_pods));
  const std::string path = TempPath("live");
  ASSERT_TRUE(WriteFile(path, SnapshotOf({other})));

  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const TestResponse restored =
      Fetch(daemon.port(), "POST", "/v1/restore", "{\"path\":\"" + path + "\"}");
  EXPECT_EQ(restored.status, 200) << restored.body;
  EXPECT_EQ(&CachedAppThresholds(LcAppKind::kElgg), &live);
  EXPECT_TRUE(SameLimits(live.pods, live_pods));

  const std::string body =
      "{\"app\":\"Elgg\",\"be\":\"wordcount\",\"seed\":7,\"warmup_s\":2,\"measure_s\":8}";
  const TestResponse served = Fetch(daemon.port(), "POST", "/v1/whatif", body);
  daemon.Stop();
  ASSERT_EQ(served.status, 200) << served.body;
  EXPECT_EQ(served.body, EvalWhatIfJson(body, WhatIfEvalOptions{}));
  std::remove(path.c_str());
}

TEST(DaemonRestoreRaceTest, RestoreRacingAWhatIfForTheSameApp) {
  // Elgg is cold in a fresh process with an empty disk cache, so the
  // what-ifs derive it while the restore offers a record for it. Whichever
  // fills the slot first, every query reads that one record.
  InFreshProcess([] {
    const std::string cache = PrivateEmptyCache("race_cache");
    const AppThresholds offered = Uniform(LcAppKind::kElgg, 0.5, 0.2);
    const std::string path = TempPath("race");
    ASSERT_TRUE(WriteFile(path, SnapshotOf({offered})));
    const std::string saved = TempPath("race_saved");

    DaemonOptions options;
    options.server.port = 0;
    RhythmDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    const std::string body =
        "{\"app\":\"Elgg\",\"be\":\"wordcount\",\"seed\":7,\"warmup_s\":2,\"measure_s\":8}";
    const struct {
      const char* path;
      std::string body;
    } requests[] = {{"/v1/whatif", body},
                    {"/v1/restore", "{\"path\":\"" + path + "\"}"},
                    {"/v1/whatif", body},
                    {"/v1/snapshot", "{\"path\":\"" + saved + "\"}"}};
    std::vector<TestResponse> responses(std::size(requests));
    std::latch start(static_cast<std::ptrdiff_t>(std::size(requests)));
    std::vector<std::thread> clients;
    for (size_t i = 0; i < std::size(requests); ++i) {
      clients.emplace_back([&, i] {
        start.arrive_and_wait();
        responses[i] = Fetch(daemon.port(), "POST", requests[i].path, requests[i].body);
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    daemon.Stop();
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].status, 200) << requests[i].path << ": " << responses[i].body;
    }

    const AppThresholds& elgg = CachedAppThresholds(LcAppKind::kElgg);
    const bool derived = !elgg.profile.levels.empty();
    EXPECT_TRUE(derived || SameLimits(elgg.pods, offered.pods));
    EXPECT_EQ(responses[0].body, responses[2].body);
    EXPECT_EQ(responses[0].body, EvalWhatIfJson(body, WhatIfEvalOptions{}));
    ASSERT_EQ(CharacterizedAppThresholds().size(), 1u);
    EXPECT_TRUE(SameLimits(CharacterizedAppThresholds()[0].pods, elgg.pods));
    std::filesystem::remove_all(cache);
    std::remove(path.c_str());
    std::remove(saved.c_str());
  });
}

TEST(DaemonAuditTest, AuditRecordingsLandPerQuery) {
  const std::string dir = TempPath("audit");
  std::filesystem::create_directories(dir);
  DaemonOptions options;
  options.server.port = 0;
  options.audit_dir = dir;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string body =
      "{\"app\":\"Redis\",\"be\":\"wordcount\",\"seed\":7,"
      "\"warmup_s\":2,\"measure_s\":8}";
  const TestResponse response = Fetch(daemon.port(), "POST", "/v1/whatif", body);
  ASSERT_EQ(response.status, 200) << response.body;
  daemon.Stop();

  EXPECT_EQ(daemon.audit_seq(), 1u);
  const std::string audit = dir + "/whatif-1.jsonl";
  ASSERT_TRUE(std::filesystem::exists(audit));
  // The audit record is a real obs recording (JSONL, meta first).
  std::ifstream in(audit);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("\"meta\""), std::string::npos) << first_line;

  // Auditing must not perturb the served bytes.
  WhatIfEvalOptions eval;
  EXPECT_EQ(response.body, EvalWhatIfJson(body, eval));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rhythm

#include "src/serve/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "tests/serve/http_client.h"

namespace rhythm {
namespace {

using testing::Fetch;
using testing::TestResponse;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("rhythm_serve_" + name + "_" + std::to_string(::getpid())))
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

TEST(ThresholdStoreTest, GetMemoizesAndPutOverrides) {
  ThresholdStore store;
  const auto derived = store.Get(LcAppKind::kRedis);
  const auto& cached = CachedAppThresholds(LcAppKind::kRedis).pods;
  ASSERT_EQ(derived.size(), cached.size());
  ASSERT_FALSE(derived.empty());
  for (size_t i = 0; i < derived.size(); ++i) {
    EXPECT_EQ(derived[i].loadlimit, cached[i].loadlimit);
    EXPECT_EQ(derived[i].slacklimit, cached[i].slacklimit);
  }

  store.Put(Record(LcAppKind::kRedis, {{0.5, 0.25}}));
  const auto fetched = store.Get(LcAppKind::kRedis);
  ASSERT_EQ(fetched.size(), 1u);
  EXPECT_DOUBLE_EQ(fetched[0].loadlimit, 0.5);
  EXPECT_DOUBLE_EQ(fetched[0].slacklimit, 0.25);

  const auto all = store.All();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].app, LcAppKind::kRedis);
}

TEST(DaemonSnapshotTest, SaveRestoreRoundTripsThresholdsAndCounters) {
  const std::string path = TempPath("snapshot");

  DaemonOptions options;
  options.server.port = 0;
  {
    RhythmDaemon daemon(options);
    daemon.warm().Put(Record(LcAppKind::kSolr, {{0.7, 0.2}, {0.9, 0.1}}));
    daemon.warm().Put(Record(LcAppKind::kRedis, {{0.6, 0.3}, {0.6, 0.3}}));
    std::string error;
    ASSERT_TRUE(daemon.SaveSnapshot(path, &error)) << error;
    // Staged write leaves no temp file behind.
    EXPECT_EQ(StagingSiblings(path), 0);
  }

  RhythmDaemon restored(options);
  std::string error;
  ASSERT_TRUE(restored.RestoreSnapshot(path, &error)) << error;
  const auto solr = restored.warm().Get(LcAppKind::kSolr);
  ASSERT_EQ(solr.size(), 2u);
  EXPECT_DOUBLE_EQ(solr[0].loadlimit, 0.7);
  EXPECT_DOUBLE_EQ(solr[1].slacklimit, 0.1);
  const auto redis = restored.warm().Get(LcAppKind::kRedis);
  ASSERT_EQ(redis.size(), 2u);
  EXPECT_DOUBLE_EQ(redis[0].slacklimit, 0.3);

  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, ConcurrentSavesToOnePathAllSucceed) {
  // Concurrent /v1/snapshot requests name one path; every save must land,
  // and none may take another's staging file.
  const std::string path = TempPath("concurrent");
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  for (LcAppKind app : AllLcAppKinds()) {
    std::vector<ServpodThresholds> pods;
    for (int pod = 0; pod < 200; ++pod) {
      pods.push_back({0.5 + pod / 1000.0, 0.1 + pod / 7000.0});
    }
    daemon.warm().Put(Record(app, pods));
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
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, ThresholdDoublesSurviveBitExactly) {
  const std::string path = TempPath("bits");
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  // Awkward doubles: only %.17g round-trips these exactly.
  const double loadlimit = 0.1 + 0.2;          // 0.30000000000000004
  const double slacklimit = 1.0 / 3.0;
  daemon.warm().Put(Record(LcAppKind::kElgg, {{loadlimit, slacklimit},
                                              {loadlimit, slacklimit},
                                              {loadlimit, slacklimit}}));
  std::string error;
  ASSERT_TRUE(daemon.SaveSnapshot(path, &error)) << error;

  RhythmDaemon restored(options);
  ASSERT_TRUE(restored.RestoreSnapshot(path, &error)) << error;
  const auto pods = restored.warm().Get(LcAppKind::kElgg);
  ASSERT_EQ(pods.size(), 3u);
  EXPECT_EQ(pods[0].loadlimit, loadlimit);    // bit-equal, not approx.
  EXPECT_EQ(pods[0].slacklimit, slacklimit);
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, RestoreRejectsGarbageWithoutMutatingState) {
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
  EXPECT_TRUE(daemon.warm().All().empty());  // nothing half-restored.

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
  // served count. Valid members beside a bad one are not applied either.
  for (const char* snapshot :
       {"{\"version\":2,\"audit_seq\":-1}",
        "{\"version\":2,\"audit_seq\":5,"
        "\"endpoints\":[{\"endpoint\":\"whatif\",\"served\":-3,\"errors\":0}]}",
        "{\"version\":2,\"audit_seq\":5,\"endpoints\":[{\"served\":1,\"errors\":0}]}",
        "{\"version\":2,\"audit_seq\":5,\"endpoints\":[7]}",
        "{\"version\":2,\"audit_seq\":1.5}"}) {
    ASSERT_TRUE(WriteFile(path, snapshot));
    error.clear();
    EXPECT_FALSE(daemon.RestoreSnapshot(path, &error)) << snapshot;
    EXPECT_FALSE(error.empty());
  }
  EXPECT_EQ(daemon.audit_seq(), 0u);
  EXPECT_EQ(daemon.MetricsText().find("endpoint=\"whatif\""), std::string::npos);
  EXPECT_TRUE(daemon.warm().All().empty());

  EXPECT_FALSE(daemon.RestoreSnapshot(TempPath("missing"), &error));
  std::remove(path.c_str());
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
  JsonWriter one_pod;
  one_pod.BeginObject().Key("version").Int(2).Key("apps").BeginArray();
  WriteThresholdRecord(Record(LcAppKind::kRedis, {{0.6, 0.3}}), &one_pod);
  one_pod.EndArray().EndObject();
  JsonWriter two_pods;
  two_pods.BeginObject().Key("version").Int(2).Key("apps").BeginArray();
  WriteThresholdRecord(Record(LcAppKind::kRedis, {{0.6, 0.3}, {0.6, 0.3}}), &two_pods);
  two_pods.EndArray().EndObject();
  std::string stale = two_pods.str();
  const size_t fingerprint = stale.find("\"fingerprint\":\"") + 15;
  stale.replace(fingerprint, 16, "0123456789abcdef");

  const std::string path = TempPath("mismatch");
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  for (const std::string& snapshot : {one_pod.str(), stale}) {
    ASSERT_TRUE(WriteFile(path, snapshot));
    error.clear();
    EXPECT_FALSE(daemon.RestoreSnapshot(path, &error)) << snapshot;
    EXPECT_NE(error.find("Redis"), std::string::npos) << error;
    const TestResponse restored =
        Fetch(daemon.port(), "POST", "/v1/restore", "{\"path\":\"" + path + "\"}");
    EXPECT_EQ(restored.status, 422) << restored.body;
  }
  daemon.Stop();
  EXPECT_TRUE(daemon.warm().All().empty());

  // Redis what-ifs answer as if no snapshot had been offered.
  const std::string body =
      "{\"app\":\"Redis\",\"be\":\"wordcount\",\"seed\":7,"
      "\"warmup_s\":2,\"measure_s\":8}";
  WhatIfEvalOptions warmed;
  warmed.warm = &daemon.warm();
  EXPECT_EQ(EvalWhatIfJson(body, warmed), EvalWhatIfJson(body, WhatIfEvalOptions{}));
  std::remove(path.c_str());
}

TEST(DaemonSnapshotTest, HttpSnapshotRestoreEndpointsWork) {
  const std::string path = TempPath("http");
  DaemonOptions options;
  options.server.port = 0;
  options.snapshot_path = path;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  daemon.warm().Put(Record(LcAppKind::kSnms, {{0.8, 0.12}, {0.8, 0.12}, {0.8, 0.12}}));

  const TestResponse saved = Fetch(daemon.port(), "POST", "/v1/snapshot", "{}");
  ASSERT_EQ(saved.status, 200) << saved.body;
  EXPECT_NE(saved.body.find("\"apps\":1"), std::string::npos) << saved.body;
  ASSERT_TRUE(std::filesystem::exists(path));

  const TestResponse restored =
      Fetch(daemon.port(), "POST", "/v1/restore",
            "{\"path\":\"" + path + "\"}");
  EXPECT_EQ(restored.status, 200) << restored.body;

  // A missing file is the client's problem, not a crash.
  const TestResponse missing =
      Fetch(daemon.port(), "POST", "/v1/restore",
            "{\"path\":\"" + TempPath("nope") + "\"}");
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

// CachedAppThresholds and the RHYTHM_THRESHOLD_CACHE disk cache under
// concurrency: many threads resolving the same and different apps must share
// one load-or-derive per app, a record filled into the cache must win only
// where nothing filled the slot before, and readers racing the
// stage-then-rename writers must never observe a torn cache entry. The
// loader must also reject every entry that is not exactly its app's current
// record. Entries are pre-seeded on disk so only one test (Elgg, about
// 0.1 s) pays for a real characterization pass, and the cached values are
// recognizably synthetic.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_io.h"
#include "src/rhythm.h"
#include "tests/fresh_process.h"

namespace rhythm {
namespace {

// A valid record for `app`: its pod count, one limit pair on every pod.
AppThresholds SyntheticThresholds(LcAppKind app, double loadlimit, double slacklimit) {
  const int pods = MakeApp(app).pod_count();
  AppThresholds thresholds;
  thresholds.app = app;
  thresholds.pods.assign(pods, ServpodThresholds{loadlimit, slacklimit});
  thresholds.contributions.resize(pods);
  for (int pod = 0; pod < pods; ++pod) {
    thresholds.contributions[pod].contribution = 1.0 / pods;
    thresholds.contributions[pod].weight_p = 0.5;
    thresholds.contributions[pod].correlation_rho = 0.25;
    thresholds.contributions[pod].varcoef_v = 0.1;
    thresholds.contributions[pod].alpha = 1.0;
  }
  return thresholds;
}

int StagingFilesIn(const std::string& dir) {
  int count = 0;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(handle)) {
      if (std::string(entry->d_name).find(".tmp.") != std::string::npos) {
        ++count;
      }
    }
    ::closedir(handle);
  }
  return count;
}

class ThresholdCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A private cache directory: the synthetic entries must not pollute the
    // suite-wide characterization cache (nor be shadowed by it).
    dir_ = ::testing::TempDir() + "rhythm_threshold_cache_test";
    ::mkdir(dir_.c_str(), 0755);
    ::setenv("RHYTHM_THRESHOLD_CACHE", dir_.c_str(), 1);
  }

  std::string dir_;
};

TEST_F(ThresholdCacheConcurrencyTest, DiskRoundTripIsExact) {
  // %.17g round-trips every double exactly — a bench re-reading its own
  // cache entry computes bit-identical rows.
  const std::string path = dir_ + "/roundtrip.thresholds";
  AppThresholds saved = SyntheticThresholds(LcAppKind::kElgg, 0.1 + 0.2 / 3.0, 1.0 / 7.0);
  saved.contributions[1].contribution = 0.30000000000000004;
  SaveThresholdsToDisk(path, saved);

  AppThresholds loaded;
  ASSERT_TRUE(LoadThresholdsFromDisk(path, 3, &loaded));
  EXPECT_EQ(loaded.app, saved.app);
  ASSERT_EQ(loaded.pods.size(), saved.pods.size());
  for (size_t pod = 0; pod < saved.pods.size(); ++pod) {
    EXPECT_EQ(loaded.pods[pod].loadlimit, saved.pods[pod].loadlimit);
    EXPECT_EQ(loaded.pods[pod].slacklimit, saved.pods[pod].slacklimit);
    EXPECT_EQ(loaded.contributions[pod].contribution, saved.contributions[pod].contribution);
    EXPECT_EQ(loaded.contributions[pod].weight_p, saved.contributions[pod].weight_p);
    EXPECT_EQ(loaded.contributions[pod].correlation_rho,
              saved.contributions[pod].correlation_rho);
    EXPECT_EQ(loaded.contributions[pod].varcoef_v, saved.contributions[pod].varcoef_v);
    EXPECT_EQ(loaded.contributions[pod].alpha, saved.contributions[pod].alpha);
  }
}

TEST_F(ThresholdCacheConcurrencyTest, CachePathEmptyWhenDisabled) {
  ::unsetenv("RHYTHM_THRESHOLD_CACHE");
  EXPECT_TRUE(ThresholdDiskCachePath(LcAppKind::kEcommerce).empty());
}

TEST_F(ThresholdCacheConcurrencyTest, LongCacheDirectoryKeepsEveryAppApart) {
  // 253 characters: a 256-byte name buffer would cut every entry to
  // "<dir>/E", and Elasticsearch would read E-commerce's entry.
  std::string dir = ::testing::TempDir() + "rhythm_long_threshold_cache_";
  ASSERT_LT(dir.size(), 253u);
  dir.resize(253, 'x');
  ::mkdir(dir.c_str(), 0755);
  ::setenv("RHYTHM_THRESHOLD_CACHE", dir.c_str(), 1);
  std::set<std::string> paths;
  for (LcAppKind app : AllLcAppKinds()) {
    paths.insert(ThresholdDiskCachePath(app));
  }
  EXPECT_EQ(paths.size(), AllLcAppKinds().size());

  const AppThresholds saved[] = {SyntheticThresholds(LcAppKind::kEcommerce, 0.9, 0.12),
                                 SyntheticThresholds(LcAppKind::kElasticsearch, 0.75, 0.238)};
  for (const AppThresholds& entry : saved) {
    SaveThresholdsToDisk(ThresholdDiskCachePath(entry.app), entry);
  }
  for (const AppThresholds& entry : saved) {
    SCOPED_TRACE(LcAppKindName(entry.app));
    AppThresholds loaded;
    ASSERT_TRUE(LoadThresholdsFromDisk(ThresholdDiskCachePath(entry.app),
                                       static_cast<int>(entry.pods.size()), &loaded));
    EXPECT_EQ(loaded.app, entry.app);
    ASSERT_EQ(loaded.pods.size(), entry.pods.size());
    for (size_t pod = 0; pod < entry.pods.size(); ++pod) {
      EXPECT_EQ(loaded.pods[pod].loadlimit, entry.pods[pod].loadlimit);
      EXPECT_EQ(loaded.pods[pod].slacklimit, entry.pods[pod].slacklimit);
    }
  }
}

TEST_F(ThresholdCacheConcurrencyTest, LoadRejectsEntriesThatDoNotFitTheModel) {
  const std::string path = dir_ + "/strict.thresholds";
  AppThresholds short_of_a_pod = SyntheticThresholds(LcAppKind::kElgg, 0.5, 0.25);
  short_of_a_pod.pods.pop_back();
  short_of_a_pod.contributions.pop_back();
  SaveThresholdsToDisk(path, short_of_a_pod);
  std::string one_pod_too_few;
  ASSERT_TRUE(ReadFile(path, &one_pod_too_few));

  SaveThresholdsToDisk(path, SyntheticThresholds(LcAppKind::kElgg, 0.5, 0.25));
  std::string valid;
  ASSERT_TRUE(ReadFile(path, &valid));
  AppThresholds loaded;
  ASSERT_TRUE(LoadThresholdsFromDisk(path, 3, &loaded));  // the unedited entry reads.
  // `valid` with its first `from` replaced by `to`.
  const auto edited = [&valid](const std::string& from, const std::string& to) {
    std::string text = valid;
    const size_t at = text.find(from);
    return at == std::string::npos ? std::string() : text.replace(at, from.size(), to);
  };
  std::string stale = valid;
  const size_t fingerprint = stale.find("\"fingerprint\":\"") + 15;
  stale[fingerprint] = stale[fingerprint] == '0' ? '1' : '0';

  const struct {
    const char* name;
    std::string text;
  } cases[] = {
      {"one pod too few", one_pod_too_few},
      {"content after the record", valid + "trailing junk\n"},
      {"nan limit", edited("\"loadlimit\":0.5", "\"loadlimit\":nan")},
      {"overflowing limit", edited("\"loadlimit\":0.5", "\"loadlimit\":1e999")},
      {"negative limit", edited("\"slacklimit\":0.25", "\"slacklimit\":-0.1")},
      {"changed fingerprint", stale},
      {"unknown app", edited("\"app\":\"Elgg\"", "\"app\":\"Warcraft\"")},
      {"app in another spelling", edited("\"app\":\"Elgg\"", "\"app\":\"elgg\"")},
      {"unknown record key", edited("\"app\":\"Elgg\"", "\"app\":\"Elgg\",\"x\":1")},
      {"unknown pod key", edited("\"alpha\":1", "\"alpha\":1,\"x\":1")},
  };
  for (const auto& entry : cases) {
    SCOPED_TRACE(entry.name);
    ASSERT_FALSE(entry.text.empty());
    ASSERT_TRUE(WriteFile(path, entry.text));
    AppThresholds rejected;
    EXPECT_FALSE(LoadThresholdsFromDisk(path, 3, &rejected));
    EXPECT_TRUE(rejected.pods.empty());
  }
}

TEST_F(ThresholdCacheConcurrencyTest, EntryNamingAnotherAppIsRederived) {
  // SNMS has Elgg's three pods, so only the record's app name tells this
  // entry apart. Elgg derives in about 0.1 s, and no other test in this
  // binary resolves Elgg, so its process-wide slot is still empty.
  const std::string path = ThresholdDiskCachePath(LcAppKind::kElgg);
  SaveThresholdsToDisk(path, SyntheticThresholds(LcAppKind::kSnms, 0.5, 0.25));
  AppThresholds impostor;
  ASSERT_TRUE(LoadThresholdsFromDisk(path, 3, &impostor));
  ASSERT_EQ(impostor.app, LcAppKind::kSnms);

  const AppThresholds& derived = CachedAppThresholds(LcAppKind::kElgg);
  EXPECT_EQ(derived.app, LcAppKind::kElgg);
  EXPECT_FALSE(derived.profile.levels.empty());  // derived, not loaded.
  ASSERT_EQ(derived.pods.size(), 3u);

  // The derivation replaced the entry with Elgg's own record.
  AppThresholds reloaded;
  ASSERT_TRUE(LoadThresholdsFromDisk(path, 3, &reloaded));
  EXPECT_EQ(reloaded.app, LcAppKind::kElgg);
  for (size_t pod = 0; pod < derived.pods.size(); ++pod) {
    EXPECT_EQ(reloaded.pods[pod].loadlimit, derived.pods[pod].loadlimit);
    EXPECT_EQ(reloaded.pods[pod].slacklimit, derived.pods[pod].slacklimit);
  }
}

TEST_F(ThresholdCacheConcurrencyTest, ConcurrentCallersShareOneEntry) {
  // Pre-seed the disk entry so CachedAppThresholds takes the load path, then
  // hammer it: every caller must get the same node-stable slot with the
  // synthetic values (i.e. exactly one load, zero derivations). Solr: no
  // other test in this binary resolves it, and Elgg's slot is left for
  // EntryNamingAnotherAppIsRederived.
  const LcAppKind app = LcAppKind::kSolr;
  const int pods = MakeApp(app).pod_count();
  SaveThresholdsToDisk(ThresholdDiskCachePath(app), SyntheticThresholds(app, 0.33, 0.055));

  constexpr int kThreads = 16;
  std::vector<const AppThresholds*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t, app] { seen[t] = &CachedAppThresholds(app); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]);
  }
  ASSERT_EQ(static_cast<int>(seen[0]->pods.size()), pods);
  for (int pod = 0; pod < pods; ++pod) {
    EXPECT_EQ(seen[0]->pods[pod].loadlimit, 0.33);
    EXPECT_EQ(seen[0]->pods[pod].slacklimit, 0.055);
  }
}

TEST_F(ThresholdCacheConcurrencyTest, DifferentAppsResolveInParallel) {
  // Callers for different apps must not serialize on (or corrupt) each
  // other's slots — the parallel runner characterizes apps concurrently.
  const LcAppKind apps[] = {LcAppKind::kElasticsearch, LcAppKind::kSnms};
  const double loadlimits[] = {0.41, 0.62};
  for (int a = 0; a < 2; ++a) {
    SaveThresholdsToDisk(ThresholdDiskCachePath(apps[a]),
                         SyntheticThresholds(apps[a], loadlimits[a], 0.05));
  }

  constexpr int kThreadsPerApp = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < 2; ++a) {
    for (int t = 0; t < kThreadsPerApp; ++t) {
      threads.emplace_back([&mismatches, app = apps[a], expected = loadlimits[a]] {
        const AppThresholds& thresholds = CachedAppThresholds(app);
        for (const ServpodThresholds& pod : thresholds.pods) {
          if (pod.loadlimit != expected) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ThresholdCacheConcurrencyTest, FirstFillWinsAndEveryFilledAppIsListed) {
  testing::InFreshProcess([] {
    EXPECT_TRUE(CharacterizedAppThresholds().empty());
    ASSERT_TRUE(FillAppThresholds(SyntheticThresholds(LcAppKind::kElgg, 0.5, 0.25)));
    const AppThresholds& elgg = CachedAppThresholds(LcAppKind::kElgg);
    EXPECT_FALSE(FillAppThresholds(SyntheticThresholds(LcAppKind::kElgg, 0.9, 0.5)));
    EXPECT_EQ(&CachedAppThresholds(LcAppKind::kElgg), &elgg);
    for (const ServpodThresholds& pod : elgg.pods) {
      EXPECT_EQ(pod.loadlimit, 0.5);
      EXPECT_EQ(pod.slacklimit, 0.25);
    }

    // A loaded app was characterized first, so a later fill changes nothing.
    SaveThresholdsToDisk(ThresholdDiskCachePath(LcAppKind::kSolr),
                         SyntheticThresholds(LcAppKind::kSolr, 0.33, 0.055));
    EXPECT_EQ(CachedAppThresholds(LcAppKind::kSolr).pods[0].loadlimit, 0.33);
    EXPECT_FALSE(FillAppThresholds(SyntheticThresholds(LcAppKind::kSolr, 0.7, 0.3)));

    // Enum order (Solr before Elgg), limits and contributions, no profile.
    const std::vector<AppThresholds> listed = CharacterizedAppThresholds();
    ASSERT_EQ(listed.size(), 2u);
    EXPECT_EQ(listed[0].app, LcAppKind::kSolr);
    EXPECT_EQ(listed[1].app, LcAppKind::kElgg);
    EXPECT_EQ(listed[0].pods[1].slacklimit, 0.055);
    EXPECT_EQ(listed[1].contributions[2].alpha, 1.0);
    EXPECT_TRUE(listed[1].profile.levels.empty());
  });
}

TEST_F(ThresholdCacheConcurrencyTest, FillsRacingALoadAgreeOnOneRecord) {
  // Fillers, loaders and listers race on one cold slot: exactly one of them
  // fills it, and every reader sees that record.
  testing::InFreshProcess([] {
    const LcAppKind app = LcAppKind::kElasticsearch;
    SaveThresholdsToDisk(ThresholdDiskCachePath(app), SyntheticThresholds(app, 0.41, 0.05));
    constexpr int kThreads = 6;
    std::atomic<int> fills{0};
    std::vector<const AppThresholds*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&fills, &seen, t, app] {
        if (t % 2 == 0) {
          fills += FillAppThresholds(SyntheticThresholds(app, 0.6 + 0.01 * t, 0.1));
        } else {
          CharacterizedAppThresholds();
        }
        seen[t] = &CachedAppThresholds(app);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_LE(fills.load(), 1);
    const double loadlimit = seen[0]->pods[0].loadlimit;
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], seen[0]);
    }
    EXPECT_EQ(loadlimit == 0.41, fills.load() == 0);
    const std::vector<AppThresholds> listed = CharacterizedAppThresholds();
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].pods[0].loadlimit, loadlimit);
  });
}

TEST_F(ThresholdCacheConcurrencyTest, RacingWritersNeverTearAnEntry) {
  // Writers stage to a temp file and rename; readers must only ever see a
  // complete low- or high-variant entry, never a mix or a partial file.
  const std::string path = dir_ + "/race.thresholds";
  const int pods = 4;
  const AppThresholds low = SyntheticThresholds(LcAppKind::kEcommerce, 0.25, 0.01);
  const AppThresholds high = SyntheticThresholds(LcAppKind::kEcommerce, 0.75, 0.09);
  SaveThresholdsToDisk(path, low);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&low, &high, &path, w] {
      for (int i = 0; i < 50; ++i) {
        SaveThresholdsToDisk(path, (i + w) % 2 == 0 ? low : high);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&stop, &torn, &path] {
      while (!stop.load(std::memory_order_relaxed)) {
        AppThresholds loaded;
        if (!LoadThresholdsFromDisk(path, pods, &loaded)) {
          torn.fetch_add(1);
          continue;
        }
        const double first = loaded.pods[0].loadlimit;
        if (first != 0.25 && first != 0.75) {
          torn.fetch_add(1);
        }
        for (int pod = 1; pod < pods; ++pod) {
          if (loaded.pods[pod].loadlimit != first) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_EQ(torn.load(), 0);
  // Every staging file was renamed into place (or cleaned up on failure).
  EXPECT_EQ(StagingFilesIn(dir_), 0);
}

}  // namespace
}  // namespace rhythm

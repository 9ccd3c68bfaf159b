// Shard-count resolution for the cluster engine: RunnerOptions::shards, then
// RHYTHM_SHARDS, then RunnerOptions::jobs, then RHYTHM_JOBS or the hardware
// count. RunCluster passes its explicit shards itself and asks
// DefaultShardCount(jobs) for the rest.

#include "src/common/env.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rhythm {
namespace {

// Clears RHYTHM_SHARDS and RHYTHM_JOBS for the test and restores whatever
// the process had afterwards.
class ShardCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"RHYTHM_SHARDS", "RHYTHM_JOBS"}) {
      const char* value = std::getenv(name);
      saved_.push_back({name, value != nullptr ? std::optional<std::string>(value)
                                               : std::nullopt});
      ::unsetenv(name);
    }
  }

  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(ShardCountTest, ResolvesShardsEnvThenJobsThenJobsEnvThenHardware) {
  const unsigned hardware = std::thread::hardware_concurrency();
  const int cores = hardware > 0 ? static_cast<int>(hardware) : 1;

  // Nothing set: the hardware count.
  EXPECT_EQ(DefaultShardCount(0), cores);

  // The caller's job count comes before the environment's.
  ::setenv("RHYTHM_JOBS", "5", 1);
  EXPECT_EQ(DefaultShardCount(3), 3);
  EXPECT_EQ(DefaultShardCount(0), 5);
  EXPECT_EQ(DefaultShardCount(-1), 5);

  // RHYTHM_SHARDS comes before any job count.
  ::setenv("RHYTHM_SHARDS", "7", 1);
  EXPECT_EQ(DefaultShardCount(3), 7);
  EXPECT_EQ(DefaultShardCount(0), 7);

  // A zero or unparsable RHYTHM_SHARDS means unset.
  ::setenv("RHYTHM_SHARDS", "0", 1);
  EXPECT_EQ(DefaultShardCount(3), 3);
  ::setenv("RHYTHM_SHARDS", "many", 1);
  EXPECT_EQ(DefaultShardCount(0), 5);

  ::unsetenv("RHYTHM_SHARDS");
  ::unsetenv("RHYTHM_JOBS");
  EXPECT_EQ(DefaultShardCount(2), 2);
  EXPECT_EQ(DefaultShardCount(0), cores);
}

TEST_F(ShardCountTest, ValuesThatAreNotExactlyOneIntFallBack) {
  ::setenv("RHYTHM_JOBS", "5", 1);
  // Trailing characters, wrap-around past 2^32, anything outside int's
  // range, and a sign or space strtol would have skipped: all mean unset.
  for (const char* value : {"7x", "4294967299", "2147483648", "-2147483649",
                            "99999999999999999999", "+7", " 7", "7 ", ""}) {
    ::setenv("RHYTHM_SHARDS", value, 1);
    EXPECT_EQ(DefaultShardCount(3), 3) << "'" << value << "'";
    EXPECT_EQ(EnvInt("RHYTHM_SHARDS", -9), -9) << "'" << value << "'";
  }
  // The extremes of int still read exactly; nothing starts a pool here.
  ::setenv("RHYTHM_SHARDS", "2147483647", 1);
  EXPECT_EQ(EnvInt("RHYTHM_SHARDS", 0), 2147483647);
  ::setenv("RHYTHM_SHARDS", "-2147483648", 1);
  EXPECT_EQ(EnvInt("RHYTHM_SHARDS", 0), -2147483647 - 1);

  ::unsetenv("RHYTHM_SHARDS");
  ::setenv("RHYTHM_JOBS", "5x", 1);
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(DefaultShardCount(0), hardware > 0 ? static_cast<int>(hardware) : 1);
}

}  // namespace
}  // namespace rhythm

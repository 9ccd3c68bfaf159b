// ShardPool: phase barrier semantics, caller participation as shard 0,
// lowest-shard-first exception propagation, pool reuse across phases
// (including after a throwing phase), and no nesting of pools.

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/shard_pool.h"

namespace rhythm {
namespace {

TEST(ShardPoolTest, RunsEveryShardExactlyOncePerPhase) {
  ShardPool pool(4);
  EXPECT_EQ(pool.shards(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& hit : hits) {
    hit = 0;
  }
  for (int phase = 0; phase < 3; ++phase) {
    pool.RunPhase([&](int shard) { ++hits[shard]; });
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(hits[shard].load(), 3) << "shard " << shard;
  }
}

TEST(ShardPoolTest, RunPhaseIsABarrier) {
  // Every shard must have entered the phase before RunPhase returns: each
  // shard increments and then spins until all have arrived — this can only
  // terminate if all N callbacks run concurrently-ish and RunPhase waits.
  ShardPool pool(3);
  std::atomic<int> arrived{0};
  pool.RunPhase([&](int) {
    arrived.fetch_add(1);
    while (arrived.load() < 3) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), 3);
}

TEST(ShardPoolTest, CallerParticipatesAsShardZero) {
  ShardPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> by_shard(3);
  pool.RunPhase([&](int shard) { by_shard[shard] = std::this_thread::get_id(); });
  EXPECT_EQ(by_shard[0], caller);
  EXPECT_NE(by_shard[1], caller);
  EXPECT_NE(by_shard[2], caller);
}

TEST(ShardPoolTest, SingleShardPoolSpawnsNoThreads) {
  ShardPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.RunPhase([&](int shard) {
    EXPECT_EQ(shard, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ShardPoolTest, LowestShardExceptionWins) {
  ShardPool pool(4);
  // Shards 1 and 3 throw; the barrier still completes and shard 1's
  // exception is the one rethrown.
  try {
    pool.RunPhase([](int shard) {
      if (shard == 1 || shard == 3) {
        throw std::runtime_error("shard " + std::to_string(shard));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }

  // The pool survives a throwing phase.
  std::atomic<int> ran{0};
  pool.RunPhase([&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

// Threads of this process, from /proc/self/task.
int ThreadCount() {
  int count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      count += entry->d_name[0] != '.';
    }
    ::closedir(dir);
  }
  return count;
}

TEST(ShardPoolTest, PoolBuiltInsideAPhaseHasOneShard) {
  ShardPool outer(3);
  std::vector<int> inner_shards(3, 0);
  std::vector<int> ran_on_own_thread(3, 0);
  outer.RunPhase([&](int shard) {
    ShardPool inner(4);
    inner_shards[shard] = inner.shards();
    const std::thread::id self = std::this_thread::get_id();
    inner.RunPhase([&](int inner_shard) {
      ran_on_own_thread[shard] = inner_shard == 0 && std::this_thread::get_id() == self;
    });
  });
  for (int shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(inner_shards[shard], 1) << "shard " << shard;
    EXPECT_TRUE(ran_on_own_thread[shard]) << "shard " << shard;
  }

  // Even inside a one-shard phase; and the inner pool starts no thread.
  ShardPool serial(1);
  int threads_before = 0;
  int threads_with_inner = 0;
  serial.RunPhase([&](int) {
    threads_before = ThreadCount();
    ShardPool inner(8);
    threads_with_inner = ThreadCount();
    EXPECT_EQ(inner.shards(), 1);
  });
  EXPECT_GT(threads_before, 0);
  EXPECT_EQ(threads_with_inner, threads_before);

  // Outside every phase a pool gets its full width again.
  EXPECT_EQ(ShardPool(4).shards(), 4);
}

TEST(ShardPoolTest, ClampsShardCountToOne) {
  ShardPool pool(0);
  EXPECT_EQ(pool.shards(), 1);
  int runs = 0;
  pool.RunPhase([&](int) { ++runs; });
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace rhythm

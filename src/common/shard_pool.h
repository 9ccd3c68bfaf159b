// ShardPool: a fixed set of persistent worker threads driven in synchronized
// phases — the worker machinery behind both the parallel experiment runner
// (src/runner) and the partitioned cluster engine (src/sim/sharded_engine).
//
// A phase runs `fn(shard)` once per shard, concurrently, and RunPhase does
// not return until every shard finished — a full barrier. The calling thread
// participates as shard 0, so a pool of N shards spawns N-1 threads and a
// 1-shard pool spawns none (the serial path stays a plain function call,
// with no synchronization in the loop).
//
// Exception contract: if shards throw, the exception from the lowest shard
// index is rethrown after the barrier (mirroring the parallel runner's
// first-error propagation); the others are discarded. The pool stays usable
// for further phases afterwards.
//
// Threads persist across phases, so a caller advancing thousands of
// conservative time windows pays thread creation once, not per window.
//
// Pools never nest: a pool constructed while its thread runs a phase of
// another pool (a cold threshold derivation inside a parallel runner's
// trial, say) gets one shard and starts no thread, so the process never
// runs pools × shards threads. The shard count never changes a result.

#ifndef RHYTHM_SRC_COMMON_SHARD_POOL_H_
#define RHYTHM_SRC_COMMON_SHARD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rhythm {

class ShardPool {
 public:
  // Spawns `shards - 1` worker threads; shards < 1 is clamped to 1, and so
  // is any count asked for inside another pool's phase.
  explicit ShardPool(int shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // Runs fn(shard) for every shard in [0, shards()) and waits for all of
  // them (barrier). `fn` must be safe to call concurrently for distinct
  // shard arguments. Not reentrant: RunPhase must not be called from inside
  // a phase, and only one thread may drive the pool.
  void RunPhase(const std::function<void(int shard)>& fn);

  int shards() const { return shards_; }

 private:
  void WorkerLoop(int shard);

  const int shards_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable phase_begin_;
  std::condition_variable phase_done_;
  const std::function<void(int)>* phase_fn_ = nullptr;  // valid during a phase.
  uint64_t phase_ = 0;       // generation counter; bumped to start a phase.
  int running_ = 0;          // workers still inside the current phase.
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;  // per shard, cleared each phase.
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_SHARD_POOL_H_

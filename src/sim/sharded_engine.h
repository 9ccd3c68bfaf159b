// Partitioned cluster event engine: conservative time-window synchronization
// over independently advancing simulation islands.
//
// The paper's setting is a datacenter — tens of thousands of machines whose
// machine-local controllers act independently between controller ticks. One
// global event queue would serialize all of them; instead, each island (a
// machine group: one Deployment with its own Simulator) is assigned to a
// shard, shards advance their islands' local clocks window by window on
// worker threads, and a full barrier at every window boundary (the
// controller-tick / top-controller boundary) keeps the cluster's view
// consistent: no island is ever more than one window ahead of another, and
// cluster-level hooks observe all islands at the same simulated instant.
//
// Determinism contract: islands never share mutable state, every island owns
// its RNG stream (seeded by logical slot, not physical shard — see
// DeriveShardSeed in src/place/cluster_engine.h), and barrier hooks merge
// island state in slot order on the coordinating thread. Therefore results
// are bit-identical at any shard count, including 1: sharding changes only
// which thread advances an island, never what the island computes. Windowed
// advancement itself is exact, not approximate — Simulator::RunUntil clamps
// the clock to the window end, so advancing to t in k windows executes
// precisely the event sequence of advancing to t in one call.

#ifndef RHYTHM_SRC_SIM_SHARDED_ENGINE_H_
#define RHYTHM_SRC_SIM_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/shard_pool.h"

namespace rhythm {

// One simulation island: an opaque advance callback plus the weight the
// partitioner balances on (machine count for cluster groups). `slot` is the
// island's stable logical identity — partition assignment derives from slot
// order, and barrier merges run in slot order.
struct ShardUnit {
  int slot = 0;
  double weight = 1.0;
  // Advances the island's local clock to `end_time` (absolute, local
  // timebase shared by every unit of one Advance call).
  std::function<void(double end_time)> advance;
};

// Deterministic weight-balanced partition: units (in slot order) are dealt
// greedily to the currently lightest shard, ties broken by lowest shard
// index. Returns unit indices per shard, ascending within each shard. Pure
// function of (weights, shards) — the same units always land the same way.
std::vector<std::vector<size_t>> PartitionUnits(
    const std::vector<ShardUnit>& units, int shards);

class ShardedEngine {
 public:
  // The engine drives `pool` (not owned; one phase per window). The pool's
  // shard count is the partition width.
  explicit ShardedEngine(ShardPool* pool);

  // Advances every unit from `from` to `to` in windows of `window_s`
  // seconds (the final window is clamped to end exactly at `to`). After
  // each window's barrier, `on_window(window_end)` — when non-empty — runs
  // on the calling thread while all units rest at `window_end`; this is the
  // seam the cluster-level tick hooks (src/control/cluster_tick.h) plug
  // into. A non-positive `window_s` collapses to a single window [from, to].
  //
  // Exceptions thrown by unit callbacks propagate after the window's
  // barrier, lowest shard first (ShardPool's contract); the engine itself
  // holds no state that could be corrupted by an abandoned advance.
  void Advance(const std::vector<ShardUnit>& units, double from, double to,
               double window_s,
               const std::function<void(double window_end)>& on_window = {});

  // Windows executed by Advance calls so far (for tests and benches).
  uint64_t windows_run() const { return windows_run_; }

 private:
  ShardPool* pool_;
  uint64_t windows_run_ = 0;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_SIM_SHARDED_ENGINE_H_

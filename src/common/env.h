// Process-environment policy knobs, in one place so higher layers (cluster,
// runner, benches) agree on their meaning:
//
//   RHYTHM_FAST=1    fast (CI-scale) mode — benches shrink their sweeps.
//   RHYTHM_JOBS=N    worker threads for the parallel experiment runner;
//                    unset or 0 means hardware_concurrency.
//   RHYTHM_SHARDS=N  machine shards for the partitioned cluster engine
//                    (intra-trial parallelism); unset or 0 falls back to
//                    the caller's job count, then RHYTHM_JOBS, then
//                    hardware_concurrency. Results are bit-identical at
//                    any value.
//
// RHYTHM_THRESHOLD_CACHE (a directory for the one-time characterization
// cache) is consumed by src/cluster/app_thresholds directly.

#ifndef RHYTHM_SRC_COMMON_ENV_H_
#define RHYTHM_SRC_COMMON_ENV_H_

namespace rhythm {

// True when the named variable is set to a value starting with '1'.
bool EnvFlag(const char* name);

// Integer value of the named variable; `fallback` when unset, or when the
// value is not exactly one integer in int's range ("7x" and "4294967299"
// fall back rather than read 7 or wrap to 3).
int EnvInt(const char* name, int fallback);

// True when the environment requests a fast (CI-scale) run; benches shrink
// their sweeps accordingly. Controlled by RHYTHM_FAST=1.
bool FastMode();

// Worker-thread count for the parallel experiment runner: RHYTHM_JOBS when
// set to a positive value, otherwise std::thread::hardware_concurrency()
// (floored at 1 when the hardware cannot be queried).
int DefaultJobCount();

// Shard count for the partitioned cluster engine when the caller names none:
// RHYTHM_SHARDS when set to a positive value, otherwise `jobs` when
// positive, otherwise DefaultJobCount(). Shard count never changes results,
// only how machines are spread over worker threads.
int DefaultShardCount(int jobs);

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_ENV_H_

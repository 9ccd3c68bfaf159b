// Shared helpers for the figure/table reproduction binaries.
//
// Each bench prints the rows/series of one table or figure from the paper's
// evaluation. Sweeps are built as declarative RunPlans and executed through
// the ParallelRunner, so a many-core box fans the whole figure out; results
// (and therefore printed rows) are bit-identical at any worker count.
// Set RHYTHM_FAST=1 for a reduced sweep (CI scale), RHYTHM_JOBS=N to pick
// the worker count, and RHYTHM_THRESHOLD_CACHE=<dir> to share the one-time
// characterization across binaries.

#ifndef RHYTHM_BENCH_BENCH_UTIL_H_
#define RHYTHM_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/rhythm.h"

namespace rhythm_bench {

using namespace rhythm;

// The bench binaries share the one-time Servpod characterization through the
// threshold disk cache; default it to a temp directory when the caller did
// not choose one, so `for b in build/bench/*; do $b; done` derives each
// app's thresholds exactly once across the whole sweep.
namespace internal {
struct ThresholdCacheDefault {
  ThresholdCacheDefault() {
    if (std::getenv("RHYTHM_THRESHOLD_CACHE") == nullptr) {
      const char* tmp = std::getenv("TMPDIR");
      const std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                              "/rhythm_threshold_cache";
      ::mkdir(dir.c_str(), 0755);
      ::setenv("RHYTHM_THRESHOLD_CACHE", dir.c_str(), 1);
    }
  }
};
inline const ThresholdCacheDefault threshold_cache_default;
}  // namespace internal

// The five (LC app, Servpod) pairs Figures 9-11 report.
struct FigurePod {
  LcAppKind app;
  const char* pod_name;
};

inline const std::vector<FigurePod>& Figure9Pods() {
  static const std::vector<FigurePod>* pods = new std::vector<FigurePod>{
      {LcAppKind::kEcommerce, "Tomcat"},    {LcAppKind::kRedis, "Slave"},
      {LcAppKind::kSolr, "Zookeeper"},      {LcAppKind::kElgg, "Memcached"},
      {LcAppKind::kElasticsearch, "Kibana"},
  };
  return *pods;
}

// The load grid of the §5.2 constant-load figures ("% of max load").
inline std::vector<double> GridLoads() {
  if (FastMode()) {
    return {0.25, 0.65, 0.85};
  }
  return {0.05, 0.25, 0.45, 0.65, 0.85};
}

// Measurement window sizes for grid runs.
inline double GridWarmup() { return FastMode() ? 10.0 : 20.0; }
inline double GridMeasure() { return FastMode() ? 50.0 : 90.0; }

// One grid cell: app x BE x controller x load, as a declarative request.
inline RunRequest GridRequest(LcAppKind app, BeJobKind be, ControllerKind controller,
                              double load, uint64_t seed = 11) {
  RunRequest request;
  request.app = app;
  request.be = be;
  request.controller = controller;
  request.seed = seed;
  request.warmup_s = GridWarmup();
  request.measure_s = GridMeasure();
  request.load = load;
  return request;
}

// Runs a grid cell inline (single trial; prefer batching cells into a
// RunPlan and calling RunMany so the sweep parallelizes).
inline RunSummary GridRun(LcAppKind app, BeJobKind be, ControllerKind controller, double load,
                          uint64_t seed = 11) {
  return Run(GridRequest(app, be, controller, load, seed));
}

// Executes a whole plan across the RHYTHM_JOBS thread pool; results come
// back in plan order regardless of the worker count.
inline std::vector<RunSummary> RunMany(const RunPlan& plan) {
  return ParallelRunner().RunAll(plan);
}

inline void PrintHeaderLoads(const std::vector<double>& loads) {
  std::printf("%-22s", "");
  for (double load : loads) {
    std::printf(" %7.0f%%", load * 100.0);
  }
  std::printf("\n");
}

inline double RelativeImprovement(double rhythm, double heracles) {
  if (heracles <= 1e-9) {
    // Heracles at zero (e.g. no co-location allowed): report Rhythm's
    // absolute value as the improvement, as the paper's bars do.
    return rhythm > 1e-9 ? 1.0 : 0.0;
  }
  return (rhythm - heracles) / heracles;
}

}  // namespace rhythm_bench

#endif  // RHYTHM_BENCH_BENCH_UTIL_H_

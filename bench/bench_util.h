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

// Minimal ordered-JSON emitter for benchmark artifacts (BENCH_*.json): an
// object tree built with Begin/End calls, numbers printed with %.17g so
// doubles round-trip. No external dependency, deliberately write-only.
class BenchJson {
 public:
  BenchJson() { out_ += "{"; }

  BenchJson& BeginObject(const std::string& key) {
    Comma();
    out_ += Quote(key) + ": {";
    fresh_ = true;
    return *this;
  }
  BenchJson& EndObject() {
    out_ += "\n";
    out_ += Indent(--depth_) + "}";
    fresh_ = false;
    return *this;
  }
  BenchJson& Field(const std::string& key, const std::string& value) {
    Comma();
    out_ += Quote(key) + ": " + Quote(value);
    return *this;
  }
  BenchJson& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  BenchJson& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Comma();
    out_ += Quote(key) + ": " + buf;
    return *this;
  }
  BenchJson& Field(const std::string& key, uint64_t value) {
    Comma();
    out_ += Quote(key) + ": " + std::to_string(value);
    return *this;
  }
  BenchJson& Field(const std::string& key, int value) {
    return Field(key, static_cast<uint64_t>(value));
  }

  // Closes the root object and writes the document; returns false on I/O
  // failure (the caller decides whether that fails the bench).
  bool WriteFile(const std::string& path) {
    while (depth_ > 1) {  // depth 1 is the root object's own content level.
      EndObject();
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const std::string doc = out_ + "\n}\n";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
      }
      q += c;
    }
    return q + "\"";
  }
  static std::string Indent(int depth) { return std::string(static_cast<size_t>(depth) * 2, ' '); }
  void Comma() {
    if (!fresh_) {
      out_ += ",";
    }
    out_ += "\n";
    if (fresh_) {
      ++depth_;
    }
    out_ += Indent(depth_);
    fresh_ = false;
  }

  std::string out_;
  int depth_ = 0;
  bool fresh_ = true;
};

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

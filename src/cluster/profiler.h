// Solo-run profiler: the "profiling LC once" half of Rhythm's hybrid
// strategy. Runs the LC service alone at a sweep of load levels, folds the
// request tracer's kernel events into per-pod mean sojourns as they are
// emitted (a MeanSojournSink per level, so memory stays O(pods) and no trace
// is buffered; SNMS's built-in jaeger-style sojourns are read directly), and
// produces the per-pod sojourn/CoV/tail matrix the contribution analyzer and
// thresholding consume. The result is bit-identical to buffering each
// level's events and running ExtractMeanSojourns over them afterwards.

#ifndef RHYTHM_SRC_CLUSTER_PROFILER_H_
#define RHYTHM_SRC_CLUSTER_PROFILER_H_

#include <vector>

#include "src/analysis/contribution.h"
#include "src/workload/app_catalog.h"

namespace rhythm {

struct ProfileOptions {
  uint64_t seed = 7;
  double warmup_s = 10.0;
  double measure_s = 45.0;
  // Use the kernel-event tracer to derive mean sojourns (validates the §3.3
  // pipeline); services with built-in tracing (SNMS) always use direct
  // recording, as the paper does.
  bool use_tracer = true;
  double noise_events_per_request = 0.5;
};

struct ProfileResult {
  std::vector<double> levels;   // load fractions profiled.
  ProfileMatrix matrix;         // mean sojourn per pod per level + tail.
  // Per-request sojourn CoV per pod per level (loadlimit input).
  std::vector<std::vector<double>> pod_cov;
  // Mean 99th-percentile latency per level (same as matrix.tail_ms).
  uint64_t requests_profiled = 0;
};

// Default sweep: 5%..95% in 5% steps (19 levels), mirroring the paper's
// 1..85% sweeps at practical cost.
std::vector<double> DefaultProfileLevels();

ProfileResult ProfileSolo(LcAppKind app, const std::vector<double>& levels,
                          const ProfileOptions& options);

}  // namespace rhythm

#endif  // RHYTHM_SRC_CLUSTER_PROFILER_H_

// Experiment execution: Run() plays one RunRequest to completion and a
// ParallelRunner fans a whole RunPlan out across a std::thread pool.
//
// Guarantees:
//   * Determinism — each trial is a pure function of its request, so
//     RunAll() returns bit-identical summaries regardless of the worker
//     count or how trials interleave. Results come back in plan order.
//   * Shared state — trials only share the process-wide threshold cache
//     (CachedAppThresholds, which is thread-safe and derives at most once
//     per app) and immutable profiles/schedules aliased by the requests.
//   * Errors — a malformed request throws std::invalid_argument; RunAll()
//     stops scheduling new trials on the first failure and rethrows the
//     failing trial with the lowest plan index (first-error propagation).
//
// Worker count: RunnerOptions::jobs, else RHYTHM_JOBS, else
// hardware_concurrency (see src/common/env.h).

#ifndef RHYTHM_SRC_RUNNER_RUNNER_H_
#define RHYTHM_SRC_RUNNER_RUNNER_H_

#include <functional>
#include <vector>

#include "src/cluster/metrics.h"
#include "src/runner/run_request.h"

namespace rhythm {

// Runs one co-location trial: constant load or profile, optional faults
// (kLoadSpike events are applied by wrapping the profile automatically),
// thresholds from the request or the per-app cache. When the request enables
// invariant monitoring (RunRequest::verify), the monitor rides along and its
// findings land in the summary. Thread-safe.
RunSummary Run(const RunRequest& request);

// Observation hooks into one trial — the seam diagnostics build on instead
// of re-assembling the Deployment setup by hand. `after_start` fires right
// after Deployment::Start (it may mutate, e.g. LaunchBeAtPod for
// uncontrolled co-location runs); `inspect` fires after the measurement
// window on the still-live deployment, alongside the summary about to be
// returned. Either may be empty.
struct TrialHooks {
  std::function<void(Deployment&)> after_start;
  std::function<void(const Deployment&, const RunSummary&)> inspect;
  // Fires after `inspect` when the request enabled observability
  // (RunRequest::obs.enabled), with the trial's finished Recording — events,
  // metric timelines and run metadata. Exports named by the request's
  // ObsOptions are written before this hook runs.
  std::function<void(const Recording&)> on_recording;
};

RunSummary Run(const RunRequest& request, const TrialHooks& hooks);

struct RunnerOptions {
  // Worker threads; <= 0 means RHYTHM_JOBS, else hardware_concurrency.
  int jobs = 0;
  // Machine shards for the partitioned cluster engine (RunCluster):
  // <= 0 means RHYTHM_SHARDS, then the jobs resolution above. Shard count
  // is a performance knob only — cluster results are bit-identical at any
  // value. Ignored by ParallelRunner::RunAll, which shards across trials.
  int shards = 0;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(const RunnerOptions& options = {});

  // Executes every trial of the plan and returns summaries in plan order.
  // Never spawns more workers than the plan has trials.
  std::vector<RunSummary> RunAll(const RunPlan& plan) const;

  int jobs() const { return jobs_; }

 private:
  int jobs_;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_RUNNER_RUNNER_H_

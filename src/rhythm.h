// Umbrella header for the Rhythm library: a reproduction of
// "Rhythm: Component-distinguishable Workload Deployment in Datacenters"
// (Zhao et al., EuroSys 2020).
//
// Typical usage (see examples/quickstart.cc):
//   1. Derive per-Servpod thresholds once:   CachedAppThresholds(app)
//   2. Describe co-location trials:          RunRequest / RunPlan
//   3. Run one:                              Run(request)
//      ... or a whole plan across a pool:    ParallelRunner().RunAll(plan)
//   4. Compare against Heracles by flipping  request.controller.

#ifndef RHYTHM_SRC_RHYTHM_H_
#define RHYTHM_SRC_RHYTHM_H_

#include "src/analysis/contribution.h"
#include "src/analysis/online_contribution.h"
#include "src/baseline/heracles.h"
#include "src/bemodel/be_job_spec.h"
#include "src/bemodel/be_runtime.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/bubble_profiler.h"
#include "src/cluster/deployment.h"
#include "src/cluster/metrics.h"
#include "src/cluster/profiler.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/common/p2_quantile.h"
#include "src/common/percentile_window.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time_series.h"
#include "src/control/machine_agent.h"
#include "src/control/thresholds.h"
#include "src/control/top_controller.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/fault_schedule_io.h"
#include "src/fault/spiked_load_profile.h"
#include "src/interference/interference_model.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/obs_event.h"
#include "src/obs/recording.h"
#include "src/place/cluster_engine.h"
#include "src/place/cluster_spec.h"
#include "src/place/interference_score.h"
#include "src/place/placement_policy.h"
#include "src/resources/machine.h"
#include "src/runner/run_request.h"
#include "src/runner/runner.h"
#include "src/scheduler/be_backlog.h"
#include "src/scheduler/be_scheduler.h"
#include "src/serve/daemon.h"
#include "src/serve/server.h"
#include "src/serve/whatif.h"
#include "src/sim/simulator.h"
#include "src/trace/cpg_builder.h"
#include "src/verify/adversary/corpus.h"
#include "src/verify/adversary/fitness.h"
#include "src/verify/adversary/genome.h"
#include "src/verify/adversary/search.h"
#include "src/verify/chaos_fuzzer.h"
#include "src/verify/cluster_fuzzer.h"
#include "src/verify/cluster_invariants.h"
#include "src/verify/deployment_observer.h"
#include "src/verify/invariant_monitor.h"
#include "src/verify/invariant_types.h"
#include "src/verify/repro_io.h"
#include "src/verify/schedule_minimizer.h"
#include "src/trace/path_classifier.h"
#include "src/trace/trace_io.h"
#include "src/trace/event_log.h"
#include "src/trace/sojourn_extractor.h"
#include "src/workload/app_catalog.h"
#include "src/workload/lc_service.h"
#include "src/workload/load_profile.h"

#endif  // RHYTHM_SRC_RHYTHM_H_

#include "src/cluster/profiler.h"

#include "src/cluster/deployment.h"
#include "src/common/logging.h"
#include "src/trace/sojourn_extractor.h"

namespace rhythm {

std::vector<double> DefaultProfileLevels() {
  std::vector<double> levels;
  for (int pct = 5; pct <= 95; pct += 5) {
    levels.push_back(pct / 100.0);
  }
  return levels;
}

ProfileResult ProfileSolo(LcAppKind app_kind, const std::vector<double>& levels,
                          const ProfileOptions& options) {
  ProfileResult result;
  result.levels = levels;
  const AppSpec app = MakeApp(app_kind);
  const int pods = app.pod_count();
  const bool tracer = options.use_tracer && !app.builtin_tracing;

  result.matrix.pod_sojourn_ms.assign(pods, {});
  result.pod_cov.assign(pods, {});
  result.matrix.load_levels = levels;
  const TracerConfig tracer_config{.program_base = 100, .num_pods = pods};

  for (size_t level = 0; level < levels.size(); ++level) {
    // Folds the tracer's kernel events into per-pod sums as they are
    // recorded; the events themselves are never kept.
    MeanSojournSink sojourns(tracer_config);
    DeploymentConfig config;
    config.app_kind = app_kind;
    config.controller = ControllerKind::kNone;
    config.enable_be = false;
    config.record_sojourns = true;
    config.seed = options.seed + level * 1009;
    config.tail_window_s = options.measure_s;  // tail over the whole window.
    if (tracer) {
      config.sink = &sojourns;
      config.noise_events_per_request = options.noise_events_per_request;
    }
    Deployment deployment(config);
    const ConstantLoad profile(levels[level]);
    deployment.Start(&profile);
    deployment.RunFor(options.warmup_s);
    deployment.service().ResetSojourns();
    sojourns.Reset();
    deployment.RunFor(options.measure_s);

    if (tracer) {
      const SojournSummary summary = sojourns.Summary();
      for (int pod = 0; pod < pods; ++pod) {
        result.matrix.pod_sojourn_ms[pod].push_back(summary.mean_sojourn_s[pod] * 1000.0);
      }
    } else {
      for (int pod = 0; pod < pods; ++pod) {
        result.matrix.pod_sojourn_ms[pod].push_back(
            deployment.service().PodSojournStats(pod).mean());
      }
    }
    for (int pod = 0; pod < pods; ++pod) {
      result.pod_cov[pod].push_back(deployment.service().PodSojournStats(pod).cov());
    }
    result.matrix.tail_ms.push_back(deployment.service().TailLatencyMs());
    result.requests_profiled += deployment.service().completed_requests();
  }
  return result;
}

}  // namespace rhythm

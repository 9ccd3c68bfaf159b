// Measures the hiccup amplitude: the ratio of the worst to the mean
// per-second 99th percentile of a solo run at high load. The slacklimit
// guard floor in FindSlacklimits must exceed (ratio - 1), or derived
// thresholds would let BEs ride within one hiccup of the SLA.
//
// The solo run (enable_be=false) is not expressible through Run(), so this
// also doubles as the manual-attachment example for the flight recorder:
// wire it into DeploymentConfig yourself (observers + obs_sink), schedule the
// metric snapshots after Start(), and read the tail timeline back from the
// Recording instead of from the deployment.

#include <cstdio>

#include "src/rhythm.h"

using namespace rhythm;

int main() {
  ObsOptions obs;
  obs.enabled = true;
  FlightRecorder recorder(obs);

  DeploymentConfig config;
  config.app_kind = LcAppKind::kEcommerce;
  config.enable_be = false;
  config.seed = 3;
  config.observers = {&recorder};
  config.obs_sink = &recorder;
  Deployment deployment(config);
  ConstantLoad profile(0.8);
  deployment.Start(&profile);
  recorder.ScheduleSnapshots(deployment);
  deployment.RunFor(150.0);

  recorder.DescribeDeployment(deployment);
  const Recording recording = recorder.TakeRecording();
  const TimeSeries* tail = recording.Metric("tail_ms");
  if (tail == nullptr || tail->empty()) {
    std::fprintf(stderr, "diag_hiccup: recorder captured no tail_ms timeline\n");
    return 1;
  }
  const double mean = tail->AverageIn(20.0, 150.0);
  const double worst = tail->MaxIn(20.0, 150.0);
  std::printf("solo @80%% load: mean p99 = %.1f ms, worst per-second p99 = %.1f ms, "
              "hiccup amplitude = %.3f\n",
              mean, worst, worst / mean);
  std::printf("(from a %zu-point recorded timeline; %llu events, SLO violations: %zu)\n",
              tail->size(), (unsigned long long)recording.events_total,
              recording.Filter(ObsKind::kSloViolation).size());
  return 0;
}

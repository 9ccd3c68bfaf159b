// Chaos calibration: one mid-run machine crash under steady load, replayed
// against each controller. Prints the slack trajectory around the crash plus
// the recovery/violation counters, so the crash magnitude and load level can
// be tuned until the acceptance shape holds: Rhythm recovers to positive
// slack during the outage while the uncontrolled baseline stays in
// violation.
//
// Each replay is a plain RunRequest played through Run() with the invariant
// monitor (collect mode) AND a flight recorder attached — the slack/tail
// trajectory and the decision chain around the crash are printed from the
// finished Recording, and the counters from the RunSummary. Set
// RHYTHM_OBS_DIR=<dir> to also export each replay's recording
// (chaos_<controller>.jsonl / .trace.json / .csv) for obs_query or Perfetto;
// the CI obs smoke step drives exactly that path.
//
// Usage: diag_chaos [load] [inflation] [down_s]
//
// Numbers are read exactly ("abc" or "0.5x" is an error). A malformed
// number, a negative load, an inflation outside [0, kMaxCrashInflation] or
// a non-positive down_s prints the usage line and exits 2. An error (e.g.
// an unwritable RHYTHM_OBS_DIR) prints `diag_chaos: <what>` to stderr and
// also exits 2.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/common/parse_exact.h"
#include "src/rhythm.h"

using namespace rhythm;

namespace {

int Usage() {
  std::fprintf(stderr, "usage: diag_chaos [load] [inflation] [down_s]\n");
  return 2;
}

// Reads argv[index] into *out when present; false when it is malformed or
// non-finite.
bool OptionalNumber(int argc, char** argv, int index, double* out) {
  return index >= argc || (ParseExact(argv[index], out) && std::isfinite(*out));
}

int ChaosMain(int argc, char** argv) {
  double load = 0.6;
  double inflation = 0.5;
  double down_s = 60.0;
  if (argc > 4 || !OptionalNumber(argc, argv, 1, &load) ||
      !OptionalNumber(argc, argv, 2, &inflation) || !OptionalNumber(argc, argv, 3, &down_s) ||
      load < 0.0 || inflation < 0.0 || inflation > kMaxCrashInflation || down_s <= 0.0) {
    return Usage();
  }

  const LcAppKind app_kind = LcAppKind::kEcommerce;
  const AppSpec app = MakeApp(app_kind);
  const int crash_pod = app.PodIndex("MySQL");
  const double crash_at = 120.0;
  const double duration = 300.0;
  const char* obs_dir = std::getenv("RHYTHM_OBS_DIR");

  auto faults = std::make_shared<FaultSchedule>();
  faults->Add({FaultKind::kPodCrash, crash_pod, crash_at, down_s, inflation});

  std::printf("chaos: crash pod %d (%s) at t=%.0fs for %.0fs, inflation %.2f, load %.2f\n",
              crash_pod, app.components[crash_pod].name.c_str(), crash_at, down_s, inflation,
              load);
  const AppThresholds& thresholds = CachedAppThresholds(app_kind);
  for (int pod = 0; pod < static_cast<int>(thresholds.pods.size()); ++pod) {
    std::printf("  pod %d %-10s loadlimit %.2f slacklimit %.3f\n", pod,
                app.components[pod].name.c_str(), thresholds.pods[pod].loadlimit,
                thresholds.pods[pod].slacklimit);
  }
  std::printf("\n");

  for (ControllerKind controller :
       {ControllerKind::kRhythm, ControllerKind::kHeracles, ControllerKind::kNone}) {
    RunRequest request;
    request.app = app_kind;
    request.be = BeJobKind::kWordcount;
    request.controller = controller;
    request.seed = 31;
    request.load = load;
    request.warmup_s = 0.0;
    request.measure_s = duration;
    request.faults = faults;
    request.verify.mode = InvariantMode::kCollect;
    request.obs.enabled = true;
    if (obs_dir != nullptr) {
      const std::string stem =
          std::string(obs_dir) + "/chaos_" + ControllerKindName(controller);
      request.obs.export_jsonl = stem + ".jsonl";
      request.obs.export_perfetto = stem + ".trace.json";
      request.obs.export_metrics_csv = stem + ".csv";
    }

    TrialHooks hooks;
    if (controller == ControllerKind::kNone) {
      // Uncontrolled co-location: one full-demand BE per pod — light enough
      // that the pre-crash state is healthy, so the violations that follow
      // are the crash's doing.
      hooks.after_start = [](Deployment& deployment) {
        for (int pod = 0; pod < deployment.pod_count(); ++pod) {
          deployment.LaunchBeAtPod(pod, 1);
        }
      };
    }
    RunSummary summary;
    hooks.inspect = [&summary](const Deployment&, const RunSummary& s) { summary = s; };
    hooks.on_recording = [&](const Recording& recording) {
      std::printf("--- %s ---\n", ControllerKindName(controller));
      const TimeSeries* slack = recording.Metric("slack");
      const TimeSeries* tail = recording.Metric("tail_ms");
      std::printf("%8s %7s %7s %9s\n", "t(s)", "slack", "tail", "be_inst");
      for (double t = crash_at - 20.0; t <= crash_at + down_s + 60.0; t += 10.0) {
        double instances = 0.0;
        for (int pod = 0; pod < recording.pod_count(); ++pod) {
          const TimeSeries* inst =
              recording.Metric("pod" + std::to_string(pod) + ".be_instances");
          instances += inst != nullptr ? inst->ValueAt(t) : 0.0;
        }
        std::printf("%8.0f %7.2f %7.1f %9.1f\n", t, slack->ValueAt(t), tail->ValueAt(t),
                    instances);
      }
      int outage_violations = 0;
      for (double t = crash_at + 1.0; t <= crash_at + down_s; t += 1.0) {
        if (slack->ValueAt(t) < 0.0) {
          ++outage_violations;
        }
      }
      std::printf("outage violations: %d / %.0f ticks\n", outage_violations, down_s);
      std::printf("recovery_s=%.1f recovered=%d slack_violation_ticks=%llu crashes=%llu "
                  "crash_be_losses=%llu stale_ticks=%llu failed_actuations=%llu "
                  "backoff_holds=%llu kills=%llu invariant_breaches=%llu\n",
                  summary.recovery_s, summary.recovered ? 1 : 0,
                  (unsigned long long)summary.slack_violation_ticks,
                  (unsigned long long)summary.crashes,
                  (unsigned long long)summary.crash_be_losses,
                  (unsigned long long)summary.stale_ticks,
                  (unsigned long long)summary.failed_actuations,
                  (unsigned long long)summary.backoff_holds,
                  (unsigned long long)summary.be_kills,
                  (unsigned long long)summary.invariant_violations_total);
      for (const InvariantViolation& v : summary.invariant_violations) {
        std::printf("  INVARIANT t=%.1fs machine=%d %s: %s\n", v.time_s, v.machine,
                    v.id.c_str(), v.detail.c_str());
      }
      // Decision audit around the crash: what the crash pod's controller saw
      // and did from just before the outage to just after the reboot.
      std::printf("decision chain on pod %d around the crash:\n", crash_pod);
      int printed = 0;
      for (const ObsEvent& event :
           recording.Filter(ObsKind::kDecision, crash_pod, crash_at - 10.0,
                            crash_at + down_s + 20.0)) {
        std::printf("  %s\n", DescribeEvent(event).c_str());
        if (++printed >= 12) {
          std::printf("  ...\n");
          break;
        }
      }
      std::printf("fault edges: %zu, events recorded: %llu (%llu dropped)\n\n",
                  recording.Filter(ObsKind::kFault).size(),
                  (unsigned long long)recording.events_total,
                  (unsigned long long)recording.events_dropped);
    };

    Run(request, hooks);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return ChaosMain(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "diag_chaos: %s\n", error.what());
    return 2;
  }
}

// Calibration tool: the model-fitting sanity checks used while tuning the
// simulator, folded into one binary. Not part of the benches.
//
// Usage: calibrate <solo|interference|thresholds|compare|all> [load]
//   solo          solo-run tail latency vs SLA per app across loads, with
//                 per-pod sojourn statistics
//   interference  Fig.2-style p99 inflation when each BE is co-located
//                 (uncontrolled) with one pod at a time
//   thresholds    derived loadlimit/slacklimit/contribution per app
//   compare       Heracles vs Rhythm on E-commerce + wordcount at the given
//                 load (default 0.45; the paper's stress point is 0.85)
//   all           everything above
//
// `load` is read exactly ("abc" or "0.5x" is an error) and must be a finite,
// non-negative fraction; a malformed argument prints the usage line and
// exits 2.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/parse_exact.h"
#include "src/rhythm.h"

using namespace rhythm;

namespace {

double SoloP99(LcAppKind kind, double load) {
  DeploymentConfig config;
  config.app_kind = kind;
  config.enable_be = false;
  config.tail_window_s = 60.0;
  config.seed = 5;
  Deployment deployment(config);
  ConstantLoad profile(load);
  deployment.Start(&profile);
  deployment.RunFor(70.0);
  return deployment.service().TailLatencyMs();
}

void CmdSolo() {
  for (LcAppKind kind : AllLcAppKinds()) {
    const AppSpec app = MakeApp(kind);
    std::printf("== %s (maxload=%.0f sla=%.2fms)\n", app.name.c_str(), app.maxload_qps,
                app.sla_ms);
    for (double load : {0.25, 0.50, 0.75, 0.90, 1.00}) {
      DeploymentConfig config;
      config.app_kind = kind;
      config.enable_be = false;
      config.record_sojourns = true;
      config.tail_window_s = 60.0;
      config.seed = 99;
      Deployment d(config);
      ConstantLoad profile(load);
      d.Start(&profile);
      d.RunFor(70.0);
      std::printf("  load=%.2f p99=%8.2fms  (sla ratio %.2f)  sojourns:", load,
                  d.service().TailLatencyMs(), d.service().TailLatencyMs() / app.sla_ms);
      for (int pod = 0; pod < app.pod_count(); ++pod) {
        std::printf(" %s=%.1f/cov%.2f", app.components[pod].name.c_str(),
                    d.service().PodSojournStats(pod).mean(),
                    d.service().PodSojournStats(pod).cov());
      }
      std::printf("\n");
    }
  }
}

void CmdInterference() {
  // Fig2-style: co-locate each BE with ONE pod at a time (uncontrolled) and
  // report the p99 inflation over the solo run.
  for (LcAppKind app : {LcAppKind::kEcommerce, LcAppKind::kRedis}) {
    const AppSpec spec = MakeApp(app);
    std::printf("== %s interference (p99 increase %% vs solo)\n", spec.name.c_str());
    for (BeJobKind be : {BeJobKind::kStreamLlcBig, BeJobKind::kStreamDramBig,
                         BeJobKind::kCpuStress, BeJobKind::kIperf}) {
      std::printf("  %-18s", GetBeJobSpec(be).name.c_str());
      for (int pod = 0; pod < spec.pod_count(); ++pod) {
        const double load = 0.6;
        const double solo = SoloP99(app, load);
        DeploymentConfig config;
        config.app_kind = app;
        config.be_kind = be;
        config.enable_be = true;
        config.controller = ControllerKind::kNone;
        config.tail_window_s = 60.0;
        config.seed = 5;
        Deployment d(config);
        ConstantLoad profile(load);
        d.Start(&profile);
        d.LaunchBeAtPod(pod, 4);
        d.RunFor(70.0);
        const double inter = d.service().TailLatencyMs();
        std::printf("  %s=+%.0f%%", spec.components[pod].name.c_str(),
                    100.0 * (inter / solo - 1.0));
      }
      std::printf("\n");
    }
  }
}

void CmdThresholds() {
  for (LcAppKind kind : AllLcAppKinds()) {
    const AppThresholds& th = CachedAppThresholds(kind);
    const AppSpec spec = MakeApp(kind);
    std::printf("== %s\n", spec.name.c_str());
    for (int i = 0; i < spec.pod_count(); ++i) {
      std::printf("  %-14s loadlimit=%.2f slacklimit=%.3f C=%.4f (P=%.2f rho=%.2f V=%.3f)\n",
                  spec.components[i].name.c_str(), th.pods[i].loadlimit,
                  th.pods[i].slacklimit, th.contributions[i].contribution,
                  th.contributions[i].weight_p, th.contributions[i].correlation_rho,
                  th.contributions[i].varcoef_v);
    }
  }
}

void CmdCompare(double load) {
  // Rhythm should still co-locate at tolerant pods near the loadlimit;
  // Heracles's app-granularity gate shuts every pod down together.
  for (ControllerKind ctrl : {ControllerKind::kHeracles, ControllerKind::kRhythm}) {
    RunRequest request;
    request.app = LcAppKind::kEcommerce;
    request.be = BeJobKind::kWordcount;
    request.controller = ctrl;
    request.warmup_s = 30.0;
    request.measure_s = 120.0;
    request.load = load;
    RunSummary s = Run(request);
    std::printf("%s@%.2f: EMU=%.3f beThr=%.3f cpu=%.3f membw=%.3f worstTail=%.2f "
                "viol=%llu kills=%llu\n",
                ControllerKindName(ctrl), load, s.emu, s.be_throughput, s.cpu_util,
                s.membw_util, s.worst_tail_ratio, (unsigned long long)s.sla_violations,
                (unsigned long long)s.be_kills);
    for (size_t i = 0; i < s.pods.size(); ++i) {
      std::printf("   pod%zu beThr=%.3f cpu=%.2f membw=%.2f inst=%.1f\n", i,
                  s.pods[i].be_throughput, s.pods[i].cpu_util, s.pods[i].membw_util,
                  s.pods[i].be_instances);
    }
  }
}

int Usage() {
  std::fprintf(stderr, "usage: calibrate <solo|interference|thresholds|compare|all> [load]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    return Usage();
  }
  const std::string command = argv[1];
  double load = 0.45;
  if (argc > 2 && !(ParseExact(argv[2], &load) && std::isfinite(load) && load >= 0.0)) {
    return Usage();
  }
  if (command == "solo") {
    CmdSolo();
  } else if (command == "interference") {
    CmdInterference();
  } else if (command == "thresholds") {
    CmdThresholds();
  } else if (command == "compare") {
    CmdCompare(load);
  } else if (command == "all") {
    CmdSolo();
    CmdInterference();
    CmdThresholds();
    CmdCompare(load);
  } else {
    return Usage();
  }
  return 0;
}

// rhythm_cli: flag-driven experiment runner.
//
//   rhythm_cli run --app=<name> --be=<name> --controller=<rhythm|heracles>
//              [--load=0.45] [--measure=120] [--warmup=20] [--seed=11] [--csv]
//   rhythm_cli thresholds --app=<name>
//   rhythm_cli profile --app=<name> [--measure=30]
//
// Flags take `--flag=value` or `--flag value`; an unknown option or a
// malformed number exits 2.
//
// App names: E-commerce | Redis | Solr | Elasticsearch | Elgg | SNMS
// BE names:  CPU-stress | stream-llc(big) | stream-llc(small) |
//            stream-dram(big) | stream-dram(small) | iperf | wordcount |
//            imageClassify | LSTM

#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/rhythm.h"
#include "tools/common_flags.h"

using namespace rhythm;

namespace {

int UnknownOption(const FlagParser& flags) {
  std::fprintf(stderr, "rhythm_cli: unknown or incomplete option '%s'\n",
               flags.arg().c_str());
  return 2;
}

std::optional<BeJobKind> ParseBe(const std::string& name) {
  for (BeJobKind kind : AllBeJobKinds()) {
    if (name == GetBeJobSpec(kind).name) {
      return kind;
    }
  }
  return std::nullopt;
}

int CmdRun(FlagParser flags) {
  std::string app_name, be_name, controller_name;
  RunRequest request;
  request.warmup_s = 20.0;
  request.measure_s = 120.0;
  request.seed = 11;
  request.load = 0.45;
  bool csv = false;
  while (flags.Next()) {
    if (flags.Str("--app", &app_name) || flags.Str("--be", &be_name) ||
        flags.Str("--controller", &controller_name) || flags.Double("--load", &request.load) ||
        flags.Double("--measure", &request.measure_s) ||
        flags.Double("--warmup", &request.warmup_s) || flags.U64("--seed", &request.seed)) {
      continue;
    }
    if (flags.Is("--csv")) {
      csv = true;
      continue;
    }
    return UnknownOption(flags);
  }
  if (app_name.empty() || be_name.empty() || controller_name.empty()) {
    std::fprintf(stderr, "run requires --app, --be and --controller\n");
    return 2;
  }
  LcAppKind app = LcAppKind::kEcommerce;
  const auto be = ParseBe(be_name);
  if (!LcAppKindFromName(app_name, &app) || !be) {
    std::fprintf(stderr, "unknown app or BE name\n");
    return 2;
  }
  if (controller_name == "rhythm") {
    request.controller = ControllerKind::kRhythm;
  } else if (controller_name == "heracles") {
    request.controller = ControllerKind::kHeracles;
  } else {
    std::fprintf(stderr, "--controller must be rhythm or heracles\n");
    return 2;
  }
  request.app = app;
  request.be = *be;

  RunSummary s;
  try {
    s = Run(request);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (csv) {
    std::printf("app,be,controller,load,emu,be_throughput,cpu_util,membw_util,"
                "worst_tail_ratio,sla_violations,be_kills\n");
    std::printf("%s,%s,%s,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu\n", LcAppKindName(app),
                GetBeJobSpec(*be).name.c_str(), ControllerKindName(request.controller),
                request.load, s.emu, s.be_throughput, s.cpu_util, s.membw_util, s.worst_tail_ratio,
                (unsigned long long)s.sla_violations, (unsigned long long)s.be_kills);
    return 0;
  }
  std::printf("%s + %s under %s at %.0f%% load (%.0fs window):\n", LcAppKindName(app),
              GetBeJobSpec(*be).name.c_str(), ControllerKindName(request.controller),
              request.load * 100.0, request.measure_s);
  std::printf("  EMU            %8.3f\n", s.emu);
  std::printf("  BE throughput  %8.3f (normalized)\n", s.be_throughput);
  std::printf("  CPU util       %8.3f\n", s.cpu_util);
  std::printf("  MemBW util     %8.3f\n", s.membw_util);
  std::printf("  worst tail     %8.2fx SLA\n", s.worst_tail_ratio);
  std::printf("  SLA violations %8llu\n", (unsigned long long)s.sla_violations);
  std::printf("  BE kills       %8llu\n", (unsigned long long)s.be_kills);
  for (size_t pod = 0; pod < s.pods.size(); ++pod) {
    std::printf("  pod %zu: beThr=%.3f cpu=%.3f membw=%.3f instances=%.1f\n", pod,
                s.pods[pod].be_throughput, s.pods[pod].cpu_util, s.pods[pod].membw_util,
                s.pods[pod].be_instances);
  }
  return 0;
}

int CmdThresholds(FlagParser flags) {
  std::string app_name;
  while (flags.Next()) {
    if (!flags.Str("--app", &app_name)) {
      return UnknownOption(flags);
    }
  }
  LcAppKind app = LcAppKind::kEcommerce;
  if (!LcAppKindFromName(app_name, &app)) {
    std::fprintf(stderr, "thresholds requires --app=<name>\n");
    return 2;
  }
  const AppSpec spec = MakeApp(app);
  const AppThresholds& thresholds = CachedAppThresholds(app);
  std::printf("%-16s %10s %10s %14s\n", "Servpod", "loadlimit", "slacklimit", "contribution");
  for (int pod = 0; pod < spec.pod_count(); ++pod) {
    std::printf("%-16s %10.2f %10.3f %14.5f\n", spec.components[pod].name.c_str(),
                thresholds.pods[pod].loadlimit, thresholds.pods[pod].slacklimit,
                thresholds.contributions[pod].contribution);
  }
  return 0;
}

int CmdProfile(FlagParser flags) {
  std::string app_name;
  ProfileOptions options;
  options.measure_s = 30.0;
  while (flags.Next()) {
    if (!flags.Str("--app", &app_name) && !flags.Double("--measure", &options.measure_s)) {
      return UnknownOption(flags);
    }
  }
  LcAppKind app = LcAppKind::kEcommerce;
  if (!LcAppKindFromName(app_name, &app)) {
    std::fprintf(stderr, "profile requires --app=<name>\n");
    return 2;
  }
  const ProfileResult profile = ProfileSolo(app, DefaultProfileLevels(), options);
  const AppSpec spec = MakeApp(app);
  std::printf("load");
  for (int pod = 0; pod < spec.pod_count(); ++pod) {
    std::printf(",%s_mean_ms,%s_cov", spec.components[pod].name.c_str(),
                spec.components[pod].name.c_str());
  }
  std::printf(",p99_ms\n");
  for (size_t level = 0; level < profile.levels.size(); ++level) {
    std::printf("%.2f", profile.levels[level]);
    for (int pod = 0; pod < spec.pod_count(); ++pod) {
      std::printf(",%.3f,%.4f", profile.matrix.pod_sojourn_ms[pod][level],
                  profile.pod_cov[pod][level]);
    }
    std::printf(",%.3f\n", profile.matrix.tail_ms[level]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Each subcommand walks the flags after its own name.
  const FlagParser flags(argc - 1, argv + 1);
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    return CmdRun(flags);
  }
  if (argc >= 2 && std::strcmp(argv[1], "thresholds") == 0) {
    return CmdThresholds(flags);
  }
  if (argc >= 2 && std::strcmp(argv[1], "profile") == 0) {
    return CmdProfile(flags);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  rhythm_cli run --app=<name> --be=<name> --controller=<rhythm|heracles>\n"
               "             [--load=0.45] [--measure=120] [--warmup=20] [--seed=11] [--csv]\n"
               "  rhythm_cli thresholds --app=<name>\n"
               "  rhythm_cli profile --app=<name> [--measure=30]\n");
  return 2;
}

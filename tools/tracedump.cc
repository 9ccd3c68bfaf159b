// tracedump: capture, store and analyze kernel-event traces.
//
//   tracedump capture <file> [seconds] [app]   record a solo-run trace
//   tracedump stats <file>                     sojourn + path analysis
//
// Demonstrates the archival workflow: traces written by `capture` are plain
// versioned CSV (see src/trace/trace_io.h) and can be analyzed offline.
//
// `seconds` must be a positive number (read exactly: "abc" or "0.5x" is an
// error) and `app` a catalog name such as E-commerce or Redis. A malformed
// argument prints the usage line and exits 2; an unreadable or unwritable
// trace file exits 1.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/parse_exact.h"
#include "src/rhythm.h"

using namespace rhythm;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n  tracedump capture <file> [seconds] [app]\n"
               "  tracedump stats <file>\n");
  return 2;
}

int Capture(const char* path, double seconds, LcAppKind kind) {
  Simulator sim;
  EventLog log;
  LcService::Config config;
  config.seed = 1234;
  config.sink = &log;
  config.noise_events_per_request = 0.5;
  const AppSpec app = MakeApp(kind);
  LcService service(&sim, app, config);
  ConstantLoad profile(0.4);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(seconds);
  if (!WriteTraceFile(path, log.events())) {
    std::fprintf(stderr, "tracedump: cannot write %s\n", path);
    return 1;
  }
  std::printf("captured %zu events (%llu requests) from %s into %s\n", log.size(),
              (unsigned long long)service.completed_requests(), app.name.c_str(), path);
  return 0;
}

int Stats(const char* path) {
  std::vector<KernelEvent> events;
  if (!ReadTraceFile(path, &events)) {
    std::fprintf(stderr, "tracedump: cannot read %s\n", path);
    return 1;
  }
  // Infer the pod count from the highest LC program id present.
  int pods = 0;
  for (const KernelEvent& event : events) {
    if (event.context.program >= 100 && event.context.program < 200) {
      pods = std::max(pods, static_cast<int>(event.context.program) - 99);
    }
  }
  const TracerConfig tracer{.program_base = 100, .num_pods = pods};
  const SojournSummary summary = ExtractMeanSojourns(events, tracer);
  std::printf("%zu events, %llu requests, %llu noise events filtered, %d Servpods\n",
              events.size(), (unsigned long long)summary.requests,
              (unsigned long long)summary.noise_filtered, pods);
  for (int pod = 0; pod < pods; ++pod) {
    std::printf("  pod %d: %8.3f ms mean sojourn over %llu visits\n", pod,
                summary.mean_sojourn_s[pod] * 1000.0, (unsigned long long)summary.visits[pod]);
  }
  const CpgResult cpgs = BuildCpgs(events, tracer);
  const auto classes = ClassifyPaths(cpgs, tracer);
  std::printf("%zu request CPGs, %zu path class(es):\n", cpgs.requests.size(), classes.size());
  for (const PathClass& cls : classes) {
    std::printf("  pods {");
    for (size_t i = 0; i < cls.pods.size(); ++i) {
      std::printf("%s%d", i > 0 ? "," : "", cls.pods[i]);
    }
    std::printf("}: %llu requests, mean %.2f ms\n", (unsigned long long)cls.requests,
                cls.mean_latency_s * 1000.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && argc <= 5 && std::strcmp(argv[1], "capture") == 0) {
    double seconds = 5.0;
    LcAppKind app = LcAppKind::kEcommerce;
    if (argc > 3 && !(ParseExact(argv[3], &seconds) && std::isfinite(seconds) && seconds > 0.0)) {
      return Usage();
    }
    if (argc > 4 && !LcAppKindFromName(argv[4], &app)) {
      return Usage();
    }
    return Capture(argv[2], seconds, app);
  }
  if (argc == 3 && std::strcmp(argv[1], "stats") == 0) {
    return Stats(argv[2]);
  }
  return Usage();
}

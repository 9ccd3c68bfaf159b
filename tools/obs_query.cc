// obs_query: offline query CLI over a recorded run (the JSONL export of
// RunRequest::obs). Answers questions like "every event on machine 3 in the
// 60 s before the first BE kill" without re-running anything.
//
// Usage:
//   obs_query summary  <recording.jsonl>
//   obs_query events   <recording.jsonl> [filters]
//   obs_query timeline <recording.jsonl> [--step S]
//
// Event filters (combinable; all default to "everything"):
//   --kind K               decision | actuation | fault | slo | be | placement
//   --machine M            only machine M (-1 = cluster-wide events)
//   --from T --to T        time window [T, T] in simulated seconds
//   --before-first-kill S  window = the S seconds up to the first BE kill
//   --limit N              print at most N events (default unlimited)
//
// Exits 2 on an unknown or malformed option, 1 on a recording that cannot
// be read or parsed.

#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "src/obs/exporters.h"
#include "src/obs/recording.h"
#include "tools/common_flags.h"

using namespace rhythm;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: obs_query <summary|events|timeline> <recording.jsonl> [options]\n"
               "  summary                 run metadata and event/metric counts\n"
               "  events [filters]        print matching events chronologically\n"
               "    --kind K              decision|actuation|fault|slo|be|placement\n"
               "    --machine M           only machine M (-1 = cluster-wide)\n"
               "    --from T --to T       time window in simulated seconds\n"
               "    --before-first-kill S the S seconds up to the first BE kill\n"
               "    --limit N             print at most N events\n"
               "  timeline [--step S]     Fig.17-style metric table\n");
  return 2;
}

bool ParseKind(const std::string& name, ObsKind* kind) {
  for (int k = 0; k < kObsKindCount; ++k) {
    if (name == ObsKindName(static_cast<ObsKind>(k))) {
      *kind = static_cast<ObsKind>(k);
      return true;
    }
  }
  return false;
}

// The options after `<command> <recording.jsonl>`; main decides which ones
// a command takes.
struct Options {
  std::string kind;
  int machine = -2;  // -2 = any (since -1 legitimately means cluster-wide).
  double from = -1e300;
  double to = 1e300;
  std::optional<double> before_first_kill;
  int limit = -1;  // < 0: unlimited.
  std::optional<double> step;
};

bool MatchOptional(FlagParser& flags, const char* flag,
                   std::optional<double>* out) {
  double value = 0.0;
  if (!flags.Double(flag, &value)) {
    return false;
  }
  *out = value;
  return true;
}

bool MatchEventFlags(FlagParser& flags, Options* options) {
  return flags.Str("--kind", &options->kind) ||
         flags.Int("--machine", &options->machine) ||
         flags.Double("--from", &options->from) ||
         flags.Double("--to", &options->to) ||
         MatchOptional(flags, "--before-first-kill",
                       &options->before_first_kill) ||
         flags.Int("--limit", &options->limit);
}

int CmdSummary(const Recording& recording) {
  const RecordingMeta& meta = recording.meta;
  std::printf("run: %s + %s under %s, seed %llu, SLA %.3f ms\n", meta.app.c_str(),
              meta.be.c_str(), meta.controller.c_str(), (unsigned long long)meta.seed,
              meta.sla_ms);
  std::printf("machines (%d):", recording.pod_count());
  for (int pod = 0; pod < recording.pod_count(); ++pod) {
    std::printf(" %d=%s", pod, meta.pods[static_cast<size_t>(pod)].c_str());
  }
  std::printf("\nevents: %zu held (%llu recorded, %llu dropped by ring wrap)\n",
              recording.events.size(), (unsigned long long)recording.events_total,
              (unsigned long long)recording.events_dropped);
  if (!recording.events.empty()) {
    std::printf("window: t=%.3f .. %.3f s\n", recording.events.front().time_s,
                recording.events.back().time_s);
  }

  uint64_t by_kind[kObsKindCount] = {0};
  std::map<int, uint64_t> decisions_by_machine;
  for (const ObsEvent& event : recording.events) {
    ++by_kind[static_cast<int>(event.kind)];
    if (event.kind == ObsKind::kDecision) {
      ++decisions_by_machine[event.machine];
    }
  }
  std::printf("by kind:");
  for (int k = 0; k < kObsKindCount; ++k) {
    std::printf(" %s=%llu", ObsKindName(static_cast<ObsKind>(k)),
                (unsigned long long)by_kind[k]);
  }
  std::printf("\ndecisions per machine:");
  for (const auto& [machine, count] : decisions_by_machine) {
    std::printf(" %d=%llu", machine, (unsigned long long)count);
  }
  const double first_kill = recording.FirstKillTime();
  if (first_kill >= 0.0) {
    std::printf("\nfirst BE kill: t=%.3f s\n", first_kill);
  } else {
    std::printf("\nfirst BE kill: none\n");
  }
  std::printf("metrics (%zu):", recording.metrics.size());
  size_t shown = 0;
  for (const auto& metric : recording.metrics) {
    if (++shown > 12) {
      std::printf(" ... +%zu more", recording.metrics.size() - 12);
      break;
    }
    std::printf(" %s[%zu]", metric.name.c_str(), metric.timeline.size());
  }
  std::printf("\n");
  return 0;
}

int CmdEvents(const Recording& recording, const Options& options) {
  bool kind_set = false;
  ObsKind kind = ObsKind::kDecision;
  if (!options.kind.empty()) {
    if (!ParseKind(options.kind, &kind)) {
      std::fprintf(stderr, "obs_query: unknown kind '%s'\n", options.kind.c_str());
      return 2;
    }
    kind_set = true;
  }
  double from = options.from;
  double to = options.to;
  if (options.before_first_kill.has_value()) {
    const double first_kill = recording.FirstKillTime();
    if (first_kill < 0.0) {
      std::printf("no BE kill in this recording\n");
      return 0;
    }
    from = first_kill - *options.before_first_kill;
    to = first_kill;
  }

  int printed = 0;
  size_t matched = 0;
  for (const ObsEvent& event : recording.events) {
    if (kind_set && event.kind != kind) continue;
    if (options.machine != -2 && event.machine != options.machine) continue;
    if (event.time_s < from || event.time_s > to) continue;
    ++matched;
    if (options.limit >= 0 && printed >= options.limit) continue;
    ++printed;
    std::printf("%s\n", DescribeEvent(event).c_str());
  }
  if (options.limit >= 0 && matched > static_cast<size_t>(printed)) {
    std::printf("... %zu more (raise --limit)\n", matched - static_cast<size_t>(printed));
  }
  std::printf("%zu event(s) matched\n", matched);
  return 0;
}

int CmdTimeline(const Recording& recording, const Options& options) {
  const TimeSeries* load = recording.Metric("load");
  const TimeSeries* slack = recording.Metric("slack");
  if (load == nullptr || slack == nullptr || load->empty()) {
    std::fprintf(stderr, "obs_query: recording has no metric timelines\n");
    return 1;
  }
  const double t0 = load->points().front().time;
  const double t1 = load->points().back().time;
  double step = options.step.value_or((t1 - t0) / 40.0);
  if (!(step > 0.0)) {
    step = 1.0;
  }

  std::printf("%8s %6s %7s %8s", "t(s)", "load", "slack", "tail_ms");
  for (int pod = 0; pod < recording.pod_count(); ++pod) {
    std::printf(" | %5s.%-3d %7s %6s %6s", "cpu", pod, "cores", "ways", "inst");
  }
  std::printf("\n");
  const TimeSeries* tail = recording.Metric("tail_ms");
  for (double t = t0 + step; t <= t1 + 1e-9; t += step) {
    std::printf("%8.1f %6.2f %7.2f %8.1f", t, load->ValueAt(t), slack->ValueAt(t),
                tail != nullptr ? tail->ValueAt(t) : 0.0);
    for (int pod = 0; pod < recording.pod_count(); ++pod) {
      const std::string prefix = "pod" + std::to_string(pod) + ".";
      const TimeSeries* cpu = recording.Metric(prefix + "cpu_util");
      const TimeSeries* cores = recording.Metric(prefix + "be_cores");
      const TimeSeries* ways = recording.Metric(prefix + "be_ways");
      const TimeSeries* inst = recording.Metric(prefix + "be_instances");
      std::printf(" | %9.2f %7.0f %6.0f %6.0f", cpu != nullptr ? cpu->ValueAt(t) : 0.0,
                  cores != nullptr ? cores->ValueAt(t) : 0.0,
                  ways != nullptr ? ways->ValueAt(t) : 0.0,
                  inst != nullptr ? inst->ValueAt(t) : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command != "summary" && command != "events" && command != "timeline") {
    return Usage();
  }
  Options options;
  FlagParser flags(argc - 2, argv + 2);  // options follow the recording path.
  while (flags.Next()) {
    if ((command == "events" && MatchEventFlags(flags, &options)) ||
        (command == "timeline" && MatchOptional(flags, "--step", &options.step))) {
      continue;
    }
    std::fprintf(stderr, "obs_query: unknown or incomplete option '%s'\n",
                 flags.arg().c_str());
    return 2;
  }
  Recording recording;
  try {
    recording = LoadJsonl(argv[2]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "obs_query: %s\n", error.what());
    return 1;
  }
  if (command == "summary") {
    return CmdSummary(recording);
  }
  if (command == "events") {
    return CmdEvents(recording, options);
  }
  return CmdTimeline(recording, options);
}

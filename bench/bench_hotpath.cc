// Hot-path benchmark: quantifies the three hot layers of a trial
// (allocation-free event engine, tail-latency window, per-request fast path)
// and writes the numbers to BENCH_hotpath.json.
//
// Sections:
//   * end_to_end  — the representative Table-2 trial (e-commerce + wordcount
//     under the Rhythm controller at 70% load), best of N repetitions, with
//     event and request throughput from the simulator's own counters;
//   * event_engine — per-event dispatch and periodic re-arm cost, plus the
//     InlineFunction heap-fallback count (must stay 0 on this path);
//   * tail_window — add+query cost on a realistic window and the
//     same-instant memo hit rate.
//
// The committed BENCH_hotpath.json at the repo root also carries a
// "baseline" section with the same sections measured at the previous
// revision on the same machine; this binary only measures the current tree.
//
// Usage: bench_hotpath [output.json]   (default: BENCH_hotpath.json in cwd)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/inline_callable.h"

namespace rhythm_bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto pos = line.find("model name");
    if (pos != std::string::npos) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// The representative trial, run through a Deployment directly (not Run())
// so the simulator's executed-event and completed-request counters are
// readable afterwards. Identical math to Run(): same config, same
// warmup/measure split.
struct TrialResult {
  double wall_s = 0.0;
  uint64_t events = 0;
  uint64_t requests = 0;
  uint64_t sla_violations = 0;
  double worst_tail_ms = 0.0;
};

TrialResult RunRepresentativeTrial(double measure_s) {
  DeploymentConfig config;
  config.app_kind = LcAppKind::kEcommerce;
  config.be_kind = BeJobKind::kWordcount;
  config.controller = ControllerKind::kRhythm;
  config.thresholds = CachedAppThresholds(LcAppKind::kEcommerce).pods;
  config.seed = 37;
  const ConstantLoad profile(0.7);

  const auto t0 = Clock::now();
  Deployment deployment(config);
  deployment.Start(&profile);
  deployment.RunFor(20.0);
  const double m0 = deployment.sim().Now();
  const uint64_t kills_before = deployment.TotalBeKills();
  const uint64_t violations_before = deployment.TotalSlaViolations();
  deployment.RunFor(measure_s);
  const RunSummary summary = Summarize(deployment, m0, deployment.sim().Now(), kills_before,
                                       violations_before);
  TrialResult result;
  result.wall_s = SecondsSince(t0);
  result.events = deployment.sim().executed_events();
  result.requests = deployment.service().completed_requests();
  result.sla_violations = summary.sla_violations;
  result.worst_tail_ms = summary.worst_tail_ms;
  return result;
}

void BenchEndToEnd(JsonWriter& json) {
  const double measure_s = FastMode() ? 20.0 : 60.0;
  const int reps = 3;
  TrialResult best;
  for (int i = 0; i < reps; ++i) {
    const TrialResult r = RunRepresentativeTrial(measure_s);
    if (i == 0 || r.wall_s < best.wall_s) {
      best = r;
    }
  }
  json.Key("end_to_end").BeginObject()
      .Key("trial").String("ecommerce+wordcount, Rhythm controller, load 0.7, seed 37")
      .Key("warmup_s").Number(20.0)
      .Key("measure_s").Number(measure_s)
      .Key("repetitions").Int(reps)
      .Key("wall_s_best").Number(best.wall_s)
      .Key("executed_events").UInt(best.events)
      .Key("completed_requests").UInt(best.requests)
      .Key("events_per_s").Number(static_cast<double>(best.events) / best.wall_s)
      .Key("requests_per_s").Number(static_cast<double>(best.requests) / best.wall_s)
      .Key("sla_violations").UInt(best.sla_violations)
      .Key("worst_tail_ms").Number(best.worst_tail_ms)
      .EndObject();
  std::printf("end_to_end: %.3fs wall, %.2fM events/s, %.0fk requests/s\n", best.wall_s,
              static_cast<double>(best.events) / best.wall_s / 1e6,
              static_cast<double>(best.requests) / best.wall_s / 1e3);
}

void BenchEventEngine(JsonWriter& json) {
  Simulator sim;
  uint64_t sink = 0;
  constexpr int kEvents = 2000000;
  InlineFunction::ResetHeapAllocationCount();
  const auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    sim.Schedule(1.0, [&sink] { ++sink; });
    sim.Step();
  }
  const double dispatch_s = SecondsSince(t0);

  // Periodic re-arm: one task firing many times; pre-overhaul each firing
  // copied the stored std::function to re-schedule it.
  Simulator psim;
  uint64_t ticks = 0;
  double payload[4] = {1, 2, 3, 4};
  psim.SchedulePeriodic(0.0, 1.0, [&ticks, payload] {
    ticks += static_cast<uint64_t>(payload[0]);
  });
  constexpr int kFirings = 2000000;
  const auto t1 = Clock::now();
  psim.RunUntil(static_cast<double>(kFirings - 1));
  const double rearm_s = SecondsSince(t1);
  const uint64_t heap_allocs = InlineFunction::heap_allocations();

  json.Key("event_engine").BeginObject()
      .Key("dispatch_events").Int(kEvents)
      .Key("dispatch_ns_per_event").Number(dispatch_s / kEvents * 1e9)
      .Key("periodic_firings").UInt(ticks)
      .Key("periodic_ns_per_firing").Number(rearm_s / static_cast<double>(ticks) * 1e9)
      .Key("inline_function_heap_allocations").UInt(heap_allocs)
      .EndObject();
  std::printf("event_engine: %.1f ns/dispatch, %.1f ns/periodic firing, %llu heap allocs\n",
              dispatch_s / kEvents * 1e9, rearm_s / static_cast<double>(ticks) * 1e9,
              static_cast<unsigned long long>(heap_allocs));
  if (heap_allocs != 0) {
    std::fprintf(stderr, "FAIL: event closures hit the heap fallback\n");
    std::exit(1);
  }
}

void BenchTailWindow(JsonWriter& json) {
  // Realistic control-plane mix: a 6 s window at ~1.2k adds per simulated
  // second, with the accounting tick, controller tick and telemetry reads
  // querying the 99th percentile several times per simulated second.
  PercentileWindow window(6.0);
  Rng rng(43);
  double now = 0.0;
  double sink = 0.0;
  constexpr int kSeconds = 2000;
  constexpr int kAddsPerSecond = 1200;
  constexpr int kQueriesPerSecond = 5;
  const auto t0 = Clock::now();
  for (int s = 0; s < kSeconds; ++s) {
    for (int i = 0; i < kAddsPerSecond; ++i) {
      now += 1.0 / kAddsPerSecond;
      window.Add(now, rng.LognormalMean(20.0, 0.8));
    }
    for (int q = 0; q < kQueriesPerSecond; ++q) {
      sink += window.Quantile(now, 0.99);  // same instant: memo after the 1st.
    }
  }
  const double total_s = SecondsSince(t0);
  const auto& stats = window.query_stats();
  const uint64_t ops =
      static_cast<uint64_t>(kSeconds) * (kAddsPerSecond + kQueriesPerSecond);
  json.Key("tail_window").BeginObject()
      .Key("window_s").Number(window.window_seconds())
      .Key("adds").UInt(static_cast<uint64_t>(kSeconds) * kAddsPerSecond)
      .Key("queries").UInt(stats.queries)
      .Key("memo_hits").UInt(stats.memo_hits)
      .Key("ns_per_op").Number(total_s / static_cast<double>(ops) * 1e9)
      .Key("window_samples_at_end").UInt(window.size())
      .EndObject();
  std::printf("tail_window: %.1f ns/op, %llu/%llu memo hits (n=%zu), checksum %.3f\n",
              total_s / static_cast<double>(ops) * 1e9,
              static_cast<unsigned long long>(stats.memo_hits),
              static_cast<unsigned long long>(stats.queries), window.size(), sink);
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  JsonWriter json;
  json.BeginObject()
      .Key("bench").String("hotpath")
      .Key("fast_mode").Int(FastMode() ? 1 : 0);
  json.Key("machine").BeginObject()
      .Key("cpu").String(CpuModel())
      .Key("hardware_threads").UInt(std::thread::hardware_concurrency())
      .Key("build").String(BENCH_BUILD_TYPE)
      .EndObject();

  BenchEndToEnd(json);
  BenchEventEngine(json);
  BenchTailWindow(json);
  json.EndObject();

  if (!WriteFile(out_path, std::move(json).str() + "\n")) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace rhythm_bench

int main(int argc, char** argv) { return rhythm_bench::Main(argc, argv); }

// Micro-benchmarks for Rhythm's runtime overhead claims (§5.1 "Overhead"):
// the request tracer consumes ~6% CPU, each controller agent tick is cheap
// (2-second cadence), and the analyzer/threshold math is negligible. These
// google-benchmark timings quantify the per-event / per-tick costs of this
// implementation's equivalents.

#include <benchmark/benchmark.h>

#include "src/rhythm.h"

namespace rhythm {
namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  Simulator sim;
  uint64_t count = 0;
  for (auto _ : state) {
    sim.Schedule(1.0, [&count] { ++count; });
    sim.Step();
  }
  benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_TracerEventRecord(benchmark::State& state) {
  EventLog log;
  KernelEvent event{.type = EventType::kRecv,
                    .timestamp = 1.0,
                    .context = {1, 100, 1000, 4},
                    .message = {1, 2, 3, 4, 5}};
  for (auto _ : state) {
    event.timestamp += 0.001;
    log.Record(event);
    if (log.size() > 1u << 20) {
      state.PauseTiming();
      log.Clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TracerEventRecord);

void BM_MeanSojournExtraction(benchmark::State& state) {
  // Build a realistic captured trace once; measure extraction throughput.
  Simulator sim;
  EventLog log;
  LcService::Config config;
  config.sink = &log;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.5);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(5.0);
  const TracerConfig tracer{.program_base = 100, .num_pods = 4};
  for (auto _ : state) {
    const SojournSummary summary = ExtractMeanSojourns(log.events(), tracer);
    benchmark::DoNotOptimize(summary.requests);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_MeanSojournExtraction);

void BM_CpgConstruction(benchmark::State& state) {
  Simulator sim;
  EventLog log;
  LcService::Config config;
  config.sink = &log;
  LcService service(&sim, MakeApp(LcAppKind::kSolr), config);
  ConstantLoad profile(0.3);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(2.0);
  const TracerConfig tracer{.program_base = 100, .num_pods = 2};
  for (auto _ : state) {
    const CpgResult result = BuildCpgs(log.events(), tracer);
    benchmark::DoNotOptimize(result.requests.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_CpgConstruction);

void BM_ControllerDecision(benchmark::State& state) {
  TopController controller(ServpodThresholds{.loadlimit = 0.85, .slacklimit = 0.2});
  double tail = 100.0;
  for (auto _ : state) {
    tail = tail > 240.0 ? 100.0 : tail + 1.0;
    benchmark::DoNotOptimize(controller.Decide(0.6, tail, 250.0));
  }
}
BENCHMARK(BM_ControllerDecision);

void BM_MachineAgentTick(benchmark::State& state) {
  MachineSpec spec;
  LcReservation reservation;
  Machine machine("m0", spec, reservation);
  BeRuntime be(&machine, BeJobKind::kWordcount);
  MachineAgent agent(&machine, &be, ServpodThresholds{.loadlimit = 0.85, .slacklimit = 0.2},
                     250.0);
  for (auto _ : state) {
    agent.Tick(0.5, 120.0);
  }
}
BENCHMARK(BM_MachineAgentTick);

void BM_InterferenceInflation(benchmark::State& state) {
  MachineSpec spec;
  LcReservation reservation;
  Machine machine("m0", spec, reservation);
  BeRuntime be(&machine, BeJobKind::kStreamDramBig);
  be.LaunchInstance();
  be.PublishActivity();
  const ResourceVector sens{.cpu = 0.7, .llc = 1.4, .dram = 1.9, .net = 0.9, .freq = 0.45};
  for (auto _ : state) {
    benchmark::DoNotOptimize(InterferenceModel::Inflation(sens, machine, &be));
  }
}
BENCHMARK(BM_InterferenceInflation);

void BM_ContributionAnalysis(benchmark::State& state) {
  ProfileMatrix profile;
  const int levels = 19;
  for (int pod = 0; pod < 4; ++pod) {
    std::vector<double> row;
    for (int level = 0; level < levels; ++level) {
      row.push_back(10.0 + pod * 5.0 + level * 0.7);
    }
    profile.pod_sojourn_ms.push_back(row);
  }
  for (int level = 0; level < levels; ++level) {
    profile.tail_ms.push_back(100.0 + level * 8.0);
  }
  const AppSpec app = MakeApp(LcAppKind::kEcommerce);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeContributions(profile, app.call_root));
  }
}
BENCHMARK(BM_ContributionAnalysis);

void BM_LatencySample(benchmark::State& state) {
  const AppSpec app = MakeApp(LcAppKind::kEcommerce);
  const ComponentModel model(app.components[3]);
  Rng rng(41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SampleLocalMs(700.0, 0.6, 1.2, rng));
  }
}
BENCHMARK(BM_LatencySample);

void BM_PercentileWindowQuantile(benchmark::State& state) {
  // Repeated query at one instant: after the first selection this measures
  // the per-(timestamp, q) memo the tick handlers lean on.
  PercentileWindow window(10.0);
  Rng rng(43);
  double now = 0.0;
  for (int i = 0; i < 10000; ++i) {
    now += 0.001;
    window.Add(now, rng.Exponential(10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.Quantile(now, 0.99));
  }
  state.counters["memo_hits"] =
      static_cast<double>(window.query_stats().memo_hits);
}
BENCHMARK(BM_PercentileWindowQuantile);

void BM_SimulatorPeriodicReArm(benchmark::State& state) {
  // One firing of a periodic task per iteration: dequeue, run the action,
  // advance next_time, re-arm. Pre-overhaul the re-arm copied the stored
  // std::function each firing.
  Simulator sim;
  uint64_t ticks = 0;
  double payload[4] = {1.0, 2.0, 3.0, 4.0};
  sim.SchedulePeriodic(0.0, 1.0, [&ticks, payload] {
    ticks += static_cast<uint64_t>(payload[0]);
  });
  for (auto _ : state) {
    sim.Step();
  }
  benchmark::DoNotOptimize(ticks);
  state.counters["heap_allocations"] =
      static_cast<double>(InlineFunction::heap_allocations());
}
BENCHMARK(BM_SimulatorPeriodicReArm);

void BM_LatencySampleMemoized(benchmark::State& state) {
  // The per-request fast path: parameters fixed between ticks, so only the
  // two or three RNG draws remain per sample.
  const AppSpec app = MakeApp(LcAppKind::kEcommerce);
  const ComponentModel model(app.components[3]);
  const ComponentModel::LocalParams params = model.ComputeLocalParams(700.0, 0.6, 1.2);
  Rng rng(41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComponentModel::SampleWithParams(params, rng));
  }
}
BENCHMARK(BM_LatencySampleMemoized);

}  // namespace
}  // namespace rhythm

BENCHMARK_MAIN();

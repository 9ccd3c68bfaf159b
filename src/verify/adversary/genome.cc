#include "src/verify/adversary/genome.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/bemodel/be_job_spec.h"
#include "src/common/json.h"
#include "src/workload/app_catalog.h"
#include "src/workload/load_profile.h"

namespace rhythm {

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// A feature gene below this leaves its event out of the schedule, so the
// search can switch attack ingredients off entirely (and ddmin agrees with
// it later about which events never mattered).
constexpr double kFeatureOffBelow = 0.1;

// Event windows start inside [warmup, warmup + 0.9 * measure] so every
// window both begins and substantially overlaps the measured interval.
double PhaseToStart(double phase, const AdversaryConfig& config) {
  return config.warmup_s + Clamp01(phase) * 0.9 * config.measure_s;
}

}  // namespace

AdversaryGenome RandomGenome(Rng& rng) {
  AdversaryGenome genome;
  for (double& gene : genome.genes) {
    gene = rng.NextDouble();
  }
  return genome;
}

AdversaryGenome ArchetypeGenome(int index) {
  AdversaryGenome genome;  // all genes 0: every optional feature off.
  auto& g = genome.genes;
  switch (index % kArchetypeCount) {
    case 0:
      // Synchronized re-admission under a load ramp: a heavy custom BE mix,
      // one cluster-wide admission hold over [101 s, 134 s] (phase 0.3,
      // duration gene 0.5 under the default 20+300 s windows), and a burst
      // whose onset lands on the release edge (phase 0.4222 -> 134 s). The
      // burst is deliberately modest — the damage should come from every pod
      // re-admitting its BE at the same instant into rising load.
      g[0] = 0.0;                               // custom pressure spec...
      g[1] = 0.8; g[2] = 0.8; g[3] = 0.9; g[4] = 0.2;
      g[5] = 0.4222; g[6] = 0.3; g[7] = 0.4;    // burst 1 at the release edge.
      g[14] = 0.3; g[15] = 0.5;                 // cluster hold, 33 s.
      break;
    case 1:
      // Pressure oscillation: no fault events — the attack is the workload
      // itself. A cache/bandwidth-hostile BE keeps yanking the slack across
      // the band edges, so the controller flips grow <-> cut at its own tick
      // frequency; the oscillation guard exists for exactly this.
      g[0] = 0.0;
      g[1] = 0.6; g[2] = 1.0; g[3] = 1.0; g[4] = 0.0;
      break;
  }
  return genome;
}

AdversaryGenome CrossoverGenomes(const AdversaryGenome& a, const AdversaryGenome& b, Rng& rng) {
  AdversaryGenome child;
  for (int i = 0; i < AdversaryGenome::kSize; ++i) {
    child.genes[i] = rng.Bernoulli(0.5) ? a.genes[i] : b.genes[i];
  }
  return child;
}

AdversaryGenome MutateGenome(const AdversaryGenome& genome, double rate, double sigma,
                             Rng& rng) {
  AdversaryGenome mutated = genome;
  for (double& gene : mutated.genes) {
    // Fixed draw count per gene keeps the stream layout independent of which
    // genes mutate (cheap insurance for reproducibility reasoning).
    const bool hit = rng.Bernoulli(rate);
    const double offset = rng.Normal(0.0, sigma);
    if (hit) {
      gene = Clamp01(gene + offset);
    }
  }
  return mutated;
}

RunRequest DecodeGenome(const AdversaryGenome& genome, const AdversaryConfig& config) {
  const auto& g = genome.genes;
  RunRequest request = DecodeBaseline(genome, config);
  request.label = "adversary-attack";

  const int pods = MakeApp(config.app).pod_count();
  auto schedule = std::make_shared<FaultSchedule>();

  // Three flash-crowd bursts riding the diurnal envelope (g[5..13]).
  for (int burst = 0; burst < 3; ++burst) {
    const double phase = g[5 + 3 * burst];
    const double amplitude = Clamp01(g[6 + 3 * burst]);
    const double duration = Clamp01(g[7 + 3 * burst]);
    if (amplitude < kFeatureOffBelow) {
      continue;
    }
    schedule->Add(FaultEvent{.kind = FaultKind::kLoadSpike,
                             .pod = 0,
                             .start_s = PhaseToStart(phase, config),
                             .duration_s = 10.0 + 50.0 * duration,
                             .magnitude = 0.1 + 0.4 * amplitude});
  }

  // Two cluster-wide admission holds (g[14..17]): the same window on every
  // pod, so the release edge re-admits the whole cluster at one instant.
  for (int hold = 0; hold < 2; ++hold) {
    const double phase = g[14 + 2 * hold];
    const double duration = Clamp01(g[15 + 2 * hold]);
    if (duration < kFeatureOffBelow) {
      continue;
    }
    const double start = PhaseToStart(phase, config);
    for (int pod = 0; pod < pods; ++pod) {
      schedule->Add(FaultEvent{.kind = FaultKind::kBeAdmissionHold,
                               .pod = pod,
                               .start_s = start,
                               .duration_s = 6.0 + 54.0 * duration});
    }
  }

  // One telemetry freeze on a selected pod (g[18..20]).
  if (Clamp01(g[19]) >= kFeatureOffBelow) {
    const int pod = std::min(pods - 1, static_cast<int>(Clamp01(g[20]) * pods));
    schedule->Add(FaultEvent{.kind = FaultKind::kTelemetryFreeze,
                             .pod = pod,
                             .start_s = PhaseToStart(g[18], config),
                             .duration_s = 10.0 + 40.0 * Clamp01(g[19])});
  }

  // One cluster-wide actuation-drop window (g[21..23]).
  if (Clamp01(g[22]) >= kFeatureOffBelow) {
    const double start = PhaseToStart(g[21], config);
    const double duration = 10.0 + 40.0 * Clamp01(g[22]);
    const double probability = 0.3 + 0.7 * Clamp01(g[23]);
    for (int pod = 0; pod < pods; ++pod) {
      schedule->Add(FaultEvent{.kind = FaultKind::kActuationDrop,
                               .pod = pod,
                               .start_s = start,
                               .duration_s = duration,
                               .magnitude = probability});
    }
  }

  request.faults = std::move(schedule);
  return request;
}

RunRequest DecodeBaseline(const AdversaryGenome& genome, const AdversaryConfig& config) {
  const auto& g = genome.genes;
  RunRequest request;
  request.app = config.app;
  request.controller = config.controller;
  request.seed = config.run_seed;
  request.warmup_s = config.warmup_s;
  request.measure_s = config.measure_s;
  request.hardening = config.hardening;
  request.profile = std::make_shared<DiurnalTrace>(config.warmup_s + config.measure_s,
                                                   config.diurnal_min, config.diurnal_max);
  if (g[0] < 0.5) {
    request.custom_be = std::make_shared<BeJobSpec>(MakeAdversarialBeSpec(ResourceVector{
        .cpu = Clamp01(g[1]), .llc = Clamp01(g[2]), .dram = Clamp01(g[3]),
        .net = Clamp01(g[4])}));
  } else {
    const auto& kinds = EvaluationBeJobKinds();
    const int index = std::min(static_cast<int>(kinds.size()) - 1,
                               static_cast<int>((g[0] - 0.5) * 2.0 * kinds.size()));
    request.be = kinds[index];
  }
  request.label = "adversary-baseline";
  return request;
}

std::string GenomeToString(const AdversaryGenome& genome) {
  std::ostringstream out;
  for (int i = 0; i < AdversaryGenome::kSize; ++i) {
    out << (i == 0 ? "" : ";") << ExactNum(genome.genes[i]);
  }
  return out.str();
}

}  // namespace rhythm

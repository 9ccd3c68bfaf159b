#include "src/verify/adversary/corpus.h"

#include <stdexcept>

#include "src/common/json.h"
#include "src/verify/adversary/fitness.h"

namespace rhythm {

std::string ClassifyWeakness(const FaultSchedule& schedule) {
  const bool holds = schedule.HasKind(FaultKind::kBeAdmissionHold);
  const bool spikes = schedule.HasKind(FaultKind::kLoadSpike);
  if (holds && spikes) {
    return "readmission-load-ramp";  // hold release synchronized with a ramp.
  }
  if (holds) {
    return "synchronized-readmission";
  }
  if (schedule.HasKind(FaultKind::kTelemetryFreeze)) {
    return "poisoned-telemetry";
  }
  if (schedule.HasKind(FaultKind::kActuationDrop)) {
    return "actuation-loss";
  }
  if (spikes) {
    return "burst-alignment";
  }
  return "pressure-only";  // the BE mix alone does the damage.
}

AttackReproResult MinimizeAttack(const AdversaryCandidate& candidate,
                                 const AdversaryConfig& config,
                                 const AttackCorpusOptions& options) {
  if (candidate.damage <= 0.0) {
    throw std::invalid_argument("MinimizeAttack: the candidate inflicted no damage");
  }

  // Rebuild the exact evaluated trial, then express it as a repro so the
  // minimizer probes in precisely the environment the corpus test replays.
  const AdversaryConfig derived =
      [&] {
        AdversaryConfig c = config;
        c.run_seed = DeriveTrialSeed(config.run_seed, candidate.evaluation_index);
        return c;
      }();
  const RunRequest evaluated = DecodeGenome(candidate.genome, derived);

  AttackReproResult result;
  result.original_damage = candidate.damage;
  result.repro.app = derived.app;
  result.repro.controller = derived.controller;
  result.repro.run_seed = derived.run_seed;
  result.repro.warmup_s = derived.warmup_s;
  result.repro.measure_s = derived.measure_s;
  result.repro.has_diurnal = true;
  result.repro.diurnal_min = derived.diurnal_min;
  result.repro.diurnal_max = derived.diurnal_max;
  result.repro.hardening = derived.hardening;
  if (evaluated.custom_be != nullptr) {
    result.repro.has_pressure = true;
    result.repro.pressure = evaluated.custom_be->pressure;
  } else {
    result.repro.be = evaluated.be;
  }
  result.repro.schedule = *evaluated.faults;

  // Schedule-free attacks (the BE mix alone does the damage) have nothing to
  // ddmin — they skip straight to the expectation stamp.
  if (!result.repro.schedule.events.empty()) {
    const double damage_floor = options.keep_damage_fraction * candidate.damage;
    MinimizeOptions minimize_options;
    minimize_options.max_candidates = options.max_candidates;
    result.minimize = MinimizeScheduleWith(
        ReproToRequest(result.repro),
        [damage_floor](const RunSummary& summary) {
          return AttackDamage(summary) >= damage_floor;
        },
        minimize_options);
    result.repro.schedule = result.minimize.schedule;
  }
  result.weakness_class = ClassifyWeakness(result.repro.schedule);

  // Stamp the expectations from one verification replay of the minimized
  // repro — the numbers the corpus test will hold every future build to.
  const RunSummary final_summary = Run(ReproToRequest(result.repro));
  result.minimized_damage = AttackDamage(final_summary);
  result.repro.has_expectations = true;
  result.repro.expect_slack_ticks = final_summary.slack_violation_ticks;
  result.repro.expect_worst_tail_ratio = final_summary.worst_tail_ratio;
  result.repro.expect_be_throughput = final_summary.be_throughput;
  return result;
}

std::string VerifyReproExpectations(const ChaosRepro& repro) {
  if (!repro.has_expectations) {
    return "repro carries no expect_* directives; corpus files must pin their outcome";
  }
  const RunSummary summary = Run(ReproToRequest(repro));
  if (summary.slack_violation_ticks != repro.expect_slack_ticks) {
    return "slack_violation_ticks mismatch: expected " +
           std::to_string(repro.expect_slack_ticks) + ", got " +
           std::to_string(summary.slack_violation_ticks);
  }
  if (summary.worst_tail_ratio != repro.expect_worst_tail_ratio) {
    return "worst_tail_ratio mismatch: expected " + ExactNum(repro.expect_worst_tail_ratio) +
           ", got " + ExactNum(summary.worst_tail_ratio);
  }
  if (summary.be_throughput != repro.expect_be_throughput) {
    return "be_throughput mismatch: expected " + ExactNum(repro.expect_be_throughput) + ", got " +
           ExactNum(summary.be_throughput);
  }
  return std::string();
}

}  // namespace rhythm

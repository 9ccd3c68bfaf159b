// Adversarial BE workload search CLI: evolve attack genomes against the
// controller, minimize the champions into checked-in repro files, and
// measure how much of each attack's damage the ControlHardening fail-safes
// recover.
//
// Usage: adversary_search [options]
//   --seed S               GA seed (search is a pure function of it) (1)
//   --run-seed S           base trial seed; candidates derive theirs (11)
//   --generations N        GA generations (6)
//   --population N         genomes per generation (12)
//   --hill-climb N         coordinate hill-climb steps on the champion (0)
//   --plateau N            stop after N stale generations (3)
//   --wall-clock-budget-s F  safety cap, checked at generation bounds (off)
//   --jobs N               worker threads (default: RHYTHM_JOBS or cores)
//   --measure-s F          measured seconds per trial (300)
//   --harden-jitter        evaluate against readmission-jitter hardening
//   --harden-osc           evaluate against oscillation-guard hardening
//   --corpus-out DIR       minimize top attacks into DIR as repro files
//   --corpus-count N       attacks to minimize (3)
//   --keep-damage F        minimizer damage-retention fraction (0.6)
//   --bench-json PATH      write hardening before/after damage comparison
//   --obs-out PATH         write search progress as a Recording JSONL
//                          (obs_query summarizes it)
//   --expect-best-fitness X  fail unless the best fitness prints exactly X
//                          (%.17g) — the CI bit-reproducibility assertion
//   --replay PATH          instead of searching: replay a repro file and
//                          check its expect_* directives bit-exactly
//   --probe PATH           instead of searching: replay a repro under every
//                          hardening combination and print the damage split
//
// Budget flags (--generations/--population/--wall-clock-budget-s) are shared
// with tools/chaos_fuzz; see tools/README.md.
//
// Exit status: 0 success, 1 replay/expectation mismatch, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/rhythm.h"
#include "tools/common_flags.h"

using namespace rhythm;

namespace {

void PrintCandidate(const char* tag, const AdversaryCandidate& candidate) {
  std::printf("%s: fitness=%s damage=%s cost=%s slack_ticks=%llu tail_ratio=%.3f "
              "be=%.4f (baseline %.4f) eval#%llu\n",
              tag, ExactNum(candidate.fitness).c_str(), ExactNum(candidate.damage).c_str(),
              ExactNum(candidate.cost).c_str(),
              (unsigned long long)candidate.attack.slack_violation_ticks,
              candidate.attack.worst_tail_ratio, candidate.attack.be_throughput,
              candidate.baseline_be_throughput, (unsigned long long)candidate.evaluation_index);
}

// Replays a repro with the given hardening and reports its damage split.
struct HardeningProbe {
  double damage = 0.0;
  uint64_t slack_ticks = 0;
  double tail_ratio = 0.0;
  double be_throughput = 0.0;
  uint64_t jitter_holds = 0;
  uint64_t oscillation_trips = 0;
};

HardeningProbe ProbeRepro(ChaosRepro repro, const ControlHardening& hardening) {
  repro.hardening = hardening;
  const RunSummary summary = Run(ReproToRequest(repro));
  HardeningProbe probe;
  probe.damage = AttackDamage(summary);
  probe.slack_ticks = summary.slack_violation_ticks;
  probe.tail_ratio = summary.worst_tail_ratio;
  probe.be_throughput = summary.be_throughput;
  probe.jitter_holds = summary.jitter_holds;
  probe.oscillation_trips = summary.oscillation_trips;
  return probe;
}

void WriteProbeJson(JsonWriter& json, const char* key, const HardeningProbe& probe) {
  json.Key(key).BeginObject()
      .Key("damage").Number(probe.damage)
      .Key("slack_ticks").UInt(probe.slack_ticks)
      .Key("tail_ratio").Number(probe.tail_ratio)
      .Key("be_throughput").Number(probe.be_throughput)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  AdversarySearchOptions options;
  AttackCorpusOptions corpus_options;
  std::string corpus_out, bench_json, obs_out, replay_path, probe_path, expect_best;
  int corpus_count = 3;

  FlagParser flags(argc, argv);
  while (flags.Next()) {
    if (flags.U64("--seed", &options.seed) ||
        flags.U64("--run-seed", &options.config.run_seed) ||
        MatchBudgetFlags(flags, &options.generations, &options.population,
                         &options.wall_clock_budget_s) ||
        flags.Int("--hill-climb", &options.hill_climb_steps) ||
        flags.Int("--plateau", &options.plateau_generations) ||
        flags.Int("--jobs", &options.jobs) ||
        flags.Double("--measure-s", &options.config.measure_s) ||
        flags.Str("--corpus-out", &corpus_out) ||
        flags.Int("--corpus-count", &corpus_count) ||
        flags.Double("--keep-damage", &corpus_options.keep_damage_fraction) ||
        flags.Str("--bench-json", &bench_json) ||
        flags.Str("--obs-out", &obs_out) ||
        flags.Str("--expect-best-fitness", &expect_best) ||
        flags.Str("--replay", &replay_path) ||
        flags.Str("--probe", &probe_path)) {
      continue;
    }
    if (flags.Is("--harden-jitter")) {
      options.config.hardening.readmission_jitter = true;
    } else if (flags.Is("--harden-osc")) {
      options.config.hardening.oscillation_guard = true;
    } else {
      std::fprintf(stderr, "adversary_search: unknown or incomplete option '%s'\n",
                   flags.arg().c_str());
      return 2;
    }
  }

  // Probe mode: replay one repro under every hardening combination and print
  // the damage split plus how often each fail-safe fired.
  if (!probe_path.empty()) {
    try {
      const ChaosRepro repro = LoadChaosRepro(probe_path);
      const struct {
        const char* name;
        ControlHardening hardening;
      } combos[] = {
          {"unhardened", {}},
          {"jitter", {.readmission_jitter = true}},
          {"osc-guard", {.oscillation_guard = true}},
          {"both", {.readmission_jitter = true, .oscillation_guard = true}},
      };
      for (const auto& combo : combos) {
        const HardeningProbe probe = ProbeRepro(repro, combo.hardening);
        std::printf("%-10s damage=%-22s slack_ticks=%-5llu tail_ratio=%-8.3f be=%-8.4f "
                    "jitter_holds=%llu osc_trips=%llu\n",
                    combo.name, ExactNum(probe.damage).c_str(),
                    (unsigned long long)probe.slack_ticks, probe.tail_ratio,
                    probe.be_throughput, (unsigned long long)probe.jitter_holds,
                    (unsigned long long)probe.oscillation_trips);
      }
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "adversary_search: probe failed: %s\n", error.what());
      return 2;
    }
  }

  // Replay mode: verify one repro file's expectations bit-exactly.
  if (!replay_path.empty()) {
    try {
      const ChaosRepro repro = LoadChaosRepro(replay_path);
      const std::string mismatch = VerifyReproExpectations(repro);
      if (!mismatch.empty()) {
        std::fprintf(stderr, "adversary_search: %s: %s\n", replay_path.c_str(),
                     mismatch.c_str());
        return 1;
      }
      std::printf("replay ok: %s (%d events, %s)\n", replay_path.c_str(),
                  (int)repro.schedule.events.size(),
                  ClassifyWeakness(repro.schedule).c_str());
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "adversary_search: replay failed: %s\n", error.what());
      return 2;
    }
  }

  std::printf("adversary_search: seed %llu, %d generations x %d genomes, "
              "run-seed %llu, hardening jitter=%d osc=%d\n",
              (unsigned long long)options.seed, options.generations, options.population,
              (unsigned long long)options.config.run_seed,
              options.config.hardening.readmission_jitter ? 1 : 0,
              options.config.hardening.oscillation_guard ? 1 : 0);

  MetricsRegistry metrics;
  AdversarySearchResult result;
  try {
    result = AdversarySearch(options, &metrics);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "adversary_search: search failed: %s\n", error.what());
    return 2;
  }

  for (const AdversaryGenerationStats& stats : result.generations) {
    std::printf("  gen %2d: best=%s gen_best=%s gen_mean=%s evals=%llu\n", stats.generation,
                ExactNum(stats.best_fitness).c_str(), ExactNum(stats.generation_best).c_str(),
                ExactNum(stats.generation_mean).c_str(), (unsigned long long)stats.evaluations);
  }
  if (result.stopped_on_plateau) {
    std::printf("stopped early: fitness plateau\n");
  }
  if (result.budget_exhausted) {
    std::printf("wall-clock budget exhausted at a generation boundary\n");
  }
  PrintCandidate("best", result.best);
  std::printf("best genome: %s\n", GenomeToString(result.best.genome).c_str());

  if (!expect_best.empty() && ExactNum(result.best.fitness) != expect_best) {
    std::fprintf(stderr,
                 "adversary_search: best fitness %s does not match expected %s — the "
                 "search is no longer bit-reproducible\n",
                 ExactNum(result.best.fitness).c_str(), expect_best.c_str());
    return 1;
  }

  if (!obs_out.empty()) {
    Recording recording;
    recording.meta.app = LcAppKindName(options.config.app);
    recording.meta.be = "adversary-search";
    recording.meta.controller = ControllerKindName(options.config.controller);
    recording.meta.seed = options.seed;
    recording.metrics = metrics.metrics();
    if (!WriteJsonl(recording, obs_out)) {
      std::fprintf(stderr, "adversary_search: cannot write %s\n", obs_out.c_str());
      return 2;
    }
    std::printf("search progress written to %s (obs_query can summarize it)\n",
                obs_out.c_str());
  }

  // Minimize the strongest attacks into repro files, one per weakness class:
  // a single dominant attack family must not crowd the catalogued failure
  // modes out of the corpus. The candidate pool is the hall of fame plus the
  // generation-0 archetypes (evaluation indices 0..kArchetypeCount-1, cheap
  // to replay deterministically) in case stronger genomes displaced them.
  std::vector<AttackReproResult> minimized;
  if (!corpus_out.empty()) {
    std::vector<AdversaryCandidate> pool = result.hall_of_fame;
    if (options.population > kArchetypeCount) {
      for (int i = 0; i < kArchetypeCount; ++i) {
        const AdversaryGenome archetype = ArchetypeGenome(i);
        bool held = false;
        for (const AdversaryCandidate& candidate : pool) {
          held = held || candidate.genome == archetype;
        }
        if (!held) {
          pool.push_back(
              ReplayCandidate(archetype, static_cast<uint64_t>(i), options.config));
        }
      }
    }
    std::vector<std::string> classes_minted;
    for (const AdversaryCandidate& candidate : pool) {
      if (static_cast<int>(minimized.size()) >= corpus_count) {
        break;
      }
      if (candidate.damage <= 0.0) {
        continue;
      }
      try {
        AttackReproResult attack = MinimizeAttack(candidate, options.config, corpus_options);
        bool duplicate = false;
        for (const std::string& minted : classes_minted) {
          duplicate = duplicate || minted == attack.weakness_class;
        }
        if (duplicate) {
          std::printf("skipping second %s attack (eval#%llu)\n",
                      attack.weakness_class.c_str(),
                      (unsigned long long)candidate.evaluation_index);
          continue;
        }
        const std::string path = corpus_out + "/adversary_" + attack.weakness_class + "_" +
                                 std::to_string(minimized.size()) + ".txt";
        SaveChaosRepro(attack.repro, path);
        std::printf("minimized attack -> %s: %d -> %d events, damage %s -> %s, class %s\n",
                    path.c_str(), attack.minimize.events_before, attack.minimize.events_after,
                    ExactNum(attack.original_damage).c_str(),
                    ExactNum(attack.minimized_damage).c_str(), attack.weakness_class.c_str());
        classes_minted.push_back(attack.weakness_class);
        minimized.push_back(std::move(attack));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "adversary_search: minimization skipped: %s\n", error.what());
      }
    }
  }

  if (!bench_json.empty()) {
    ControlHardening jitter_only, osc_only, both;
    jitter_only.readmission_jitter = true;
    osc_only.oscillation_guard = true;
    both.readmission_jitter = true;
    both.oscillation_guard = true;
    JsonWriter json;
    json.BeginObject()
        .Key("seed").UInt(options.seed)
        .Key("run_seed").UInt(options.config.run_seed)
        .Key("generations_run").UInt(result.generations.size())
        .Key("evaluations").UInt(result.evaluations)
        .Key("best_fitness").Number(result.best.fitness)
        .Key("best_damage").Number(result.best.damage)
        .Key("best_genome").String(GenomeToString(result.best.genome))
        .Key("progress").BeginArray();
    for (const AdversaryGenerationStats& stats : result.generations) {
      json.BeginObject()
          .Key("generation").Int(stats.generation)
          .Key("best").Number(stats.best_fitness)
          .Key("gen_best").Number(stats.generation_best)
          .Key("gen_mean").Number(stats.generation_mean)
          .Key("evaluations").UInt(stats.evaluations)
          .EndObject();
    }
    json.EndArray().Key("attacks").BeginArray();
    for (const AttackReproResult& attack : minimized) {
      const HardeningProbe unhardened = ProbeRepro(attack.repro, ControlHardening{});
      const HardeningProbe jittered = ProbeRepro(attack.repro, jitter_only);
      const HardeningProbe guarded = ProbeRepro(attack.repro, osc_only);
      const HardeningProbe hardened = ProbeRepro(attack.repro, both);
      const auto reduction_pct = [&](const HardeningProbe& probe) {
        return unhardened.damage > 0.0
                   ? 100.0 * (unhardened.damage - probe.damage) / unhardened.damage
                   : 0.0;
      };
      json.BeginObject()
          .Key("weakness").String(attack.weakness_class)
          .Key("events").UInt(attack.repro.schedule.events.size());
      WriteProbeJson(json, "unhardened", unhardened);
      WriteProbeJson(json, "readmission_jitter", jittered);
      WriteProbeJson(json, "oscillation_guard", guarded);
      WriteProbeJson(json, "both_fixes", hardened);
      json.Key("damage_reduction_pct").BeginObject()
          .Key("readmission_jitter").Number(reduction_pct(jittered))
          .Key("oscillation_guard").Number(reduction_pct(guarded))
          .Key("both_fixes").Number(reduction_pct(hardened))
          .EndObject()
          .EndObject();
      std::printf("hardening on %s: damage %s | jitter %s (%.1f%%) | osc %s (%.1f%%) | "
                  "both %s (%.1f%%)\n",
                  attack.weakness_class.c_str(), ExactNum(unhardened.damage).c_str(),
                  ExactNum(jittered.damage).c_str(), reduction_pct(jittered),
                  ExactNum(guarded.damage).c_str(), reduction_pct(guarded),
                  ExactNum(hardened.damage).c_str(), reduction_pct(hardened));
    }
    json.EndArray().EndObject();
    if (!WriteFile(bench_json, std::move(json).str() + "\n")) {
      std::fprintf(stderr, "adversary_search: cannot write %s\n", bench_json.c_str());
      return 2;
    }
    std::printf("bench written to %s\n", bench_json.c_str());
  }

  return 0;
}

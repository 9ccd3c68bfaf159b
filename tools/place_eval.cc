// Cluster placement-policy comparison CLI (Fig. 12/15-style): run the same
// ClusterSpec under several PlacementPolicies and print cluster EMU,
// SLO-violation rate and churn side by side.
//
// Usage: place_eval [options]
//   --policies A,B,C   comma-separated policy names (default: all registered)
//   --machines N       cluster machine population (32)
//   --synthetic        use SyntheticClusterSpec instead of the default eval
//                      spec — the datacenter-scale preset (pair with
//                      --machines 1000)
//   --seed S           base seed; group trials derive theirs (11)
//   --jobs N           worker threads (default: RHYTHM_JOBS or all cores)
//   --shards N         machine shards inside each cluster trial (default:
//                      RHYTHM_SHARDS, then the jobs resolution); results are
//                      bit-identical at any value
//   --epochs N         placement rounds (1)
//   --warmup-s F       per-group warmup window (10)
//   --measure-s F      per-group measurement window (60)
//   --ramp F           ramp epoch load scale linearly from 1.0 to F (1.0)
//   --fail-machines N@t  permanently fail N machines at t seconds into the
//                      run (evenly spaced over the roster, machine
//                      i*machines/N) — a replayable failure-domain scenario;
//                      adds a per-policy "failover" line to the output
//   --supervisor on|off  barrier-driven failover for the injected losses
//                      (default on; only meaningful with --fail-machines)
//   --obs-out PATH     write each policy's placement Recording as JSONL
//                      (multi-policy runs insert the policy name before the
//                      extension; obs_query can summarize the stream)
//   --assert-order     fail unless rhythm-aware >= greedy-interference >=
//                      random on EMU, rhythm-aware beats bin-packing and
//                      random outright, and rhythm-aware's SLO-violation
//                      rate is no worse than bin-packing's or random's —
//                      the CI regression gate
//
// All output is deterministic for a fixed seed (%.17g metrics, no
// wall-clock or worker-count dependence), so CI diffs RHYTHM_JOBS=1
// against RHYTHM_JOBS=4 — and --shards 1 against --shards 4 —
// byte-for-byte.
//
// Exit status: 0 success, 1 assertion failure, 2 usage/setup error.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/rhythm.h"
#include "tools/common_flags.h"

using namespace rhythm;

namespace {

std::vector<std::string> SplitPolicies(const std::string& csv) {
  std::vector<std::string> names;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      names.push_back(csv.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return names;
}

// out.jsonl -> out.rhythm-aware.jsonl when several policies share one path.
std::string PolicyPath(const std::string& path, const std::string& policy,
                       bool multi) {
  if (!multi) {
    return path;
  }
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + policy;
  }
  return path.substr(0, dot) + "." + policy + path.substr(dot);
}

// "N@t" -> (count, time). Returns false on malformed input.
bool ParseFailMachines(const std::string& value, int* count, double* at_s) {
  char trailing = '\0';
  if (std::sscanf(value.c_str(), "%d@%lf%c", count, at_s, &trailing) != 2) {
    return false;
  }
  return *count > 0 && *at_s >= 0.0;
}

const ClusterSummary* FindPolicy(const std::vector<ClusterSummary>& summaries,
                                 const char* policy) {
  for (const ClusterSummary& summary : summaries) {
    if (summary.policy == policy) {
      return &summary;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string policies_csv, obs_out;
  int machines = 32;
  uint64_t seed = 11;
  int jobs = 0;
  int shards = 0;
  int epochs = 1;
  bool synthetic = false;
  double warmup_s = 10.0;
  double measure_s = 60.0;
  double ramp = 1.0;
  bool assert_order = false;
  std::string fail_machines;
  bool supervisor_on = true;

  FlagParser flags(argc, argv);
  while (flags.Next()) {
    if (flags.Str("--policies", &policies_csv) ||
        flags.Int("--machines", &machines) || flags.U64("--seed", &seed) ||
        flags.Int("--jobs", &jobs) || flags.Int("--shards", &shards) ||
        flags.Int("--epochs", &epochs) ||
        flags.Double("--warmup-s", &warmup_s) ||
        flags.Double("--measure-s", &measure_s) ||
        flags.Double("--ramp", &ramp) ||
        flags.Str("--fail-machines", &fail_machines) ||
        flags.OnOff("--supervisor", &supervisor_on) ||
        flags.Str("--obs-out", &obs_out)) {
      continue;
    }
    if (flags.Is("--assert-order")) {
      assert_order = true;
    } else if (flags.Is("--synthetic")) {
      synthetic = true;
    } else {
      std::fprintf(stderr, "place_eval: unknown or incomplete option '%s'\n",
                   flags.arg().c_str());
      return 2;
    }
  }

  const std::vector<std::string> policies =
      policies_csv.empty() ? PlacementPolicyNames()
                           : SplitPolicies(policies_csv);
  if (policies.empty()) {
    std::fprintf(stderr, "place_eval: no policies selected\n");
    return 2;
  }

  const ClusterSpec spec = synthetic ? SyntheticClusterSpec(machines, seed)
                                     : DefaultEvalClusterSpec(machines);
  std::printf("place_eval: %d machines, %d groups (%d pods), seed %llu, "
              "%d epoch(s), warmup %g s + measure %g s, ramp %g\n",
              spec.machines, spec.TotalGroups(), spec.TotalPods(),
              (unsigned long long)seed, epochs, warmup_s, measure_s, ramp);

  // --fail-machines N@t: N permanent losses at t, evenly spaced over the
  // roster so the victims hit distinct placement regions deterministically.
  std::shared_ptr<const FaultSchedule> faults;
  if (!fail_machines.empty()) {
    int fail_count = 0;
    double fail_at_s = 0.0;
    if (!ParseFailMachines(fail_machines, &fail_count, &fail_at_s)) {
      std::fprintf(stderr, "place_eval: --fail-machines wants N@t, got '%s'\n",
                   fail_machines.c_str());
      return 2;
    }
    if (fail_count > spec.machines) {
      std::fprintf(stderr,
                   "place_eval: --fail-machines %d exceeds the %d-machine "
                   "roster\n",
                   fail_count, spec.machines);
      return 2;
    }
    FaultSchedule schedule;
    for (int i = 0; i < fail_count; ++i) {
      FaultEvent event;
      event.kind = FaultKind::kMachineFailure;
      event.pod = static_cast<int>(
          static_cast<int64_t>(i) * spec.machines / fail_count);
      event.start_s = fail_at_s;
      schedule.Add(event);
    }
    faults = std::make_shared<FaultSchedule>(std::move(schedule));
    std::printf("failure scenario: %d machine(s) lost at t=%g s, "
                "supervisor %s\n",
                fail_count, fail_at_s, supervisor_on ? "on" : "off");
  }

  std::vector<ClusterRunRequest> requests;
  for (const std::string& policy : policies) {
    ClusterRunRequest request;
    request.spec = spec;
    request.policy = policy;
    request.seed = seed;
    request.epochs = epochs;
    request.warmup_s = warmup_s;
    request.measure_s = measure_s;
    for (int e = 0; e < epochs; ++e) {
      const double t = epochs > 1 ? static_cast<double>(e) / (epochs - 1) : 0.0;
      request.epoch_load_scale.push_back(1.0 + (ramp - 1.0) * t);
    }
    if (faults != nullptr) {
      request.faults = faults;
      request.supervisor.enabled = supervisor_on;
    }
    if (!obs_out.empty()) {
      request.obs.enabled = true;
      request.obs.export_jsonl =
          PolicyPath(obs_out, policy, policies.size() > 1);
    }
    requests.push_back(std::move(request));
  }

  std::vector<ClusterSummary> summaries;
  try {
    RunnerOptions options;
    options.jobs = jobs;
    options.shards = shards;
    for (const ClusterRunRequest& request : requests) {
      summaries.push_back(RunCluster(request, options));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "place_eval: %s\n", error.what());
    return 2;
  }

  std::printf("%-20s %-10s %-10s %-10s %-10s %-6s %-6s %-5s %-5s %-6s %-5s\n",
              "policy", "emu", "lc", "be", "slo_rate", "viol", "kills",
              "solo", "unpl", "churn", "used");
  for (const ClusterSummary& summary : summaries) {
    std::printf("%-20s %-10.4f %-10.4f %-10.4f %-10.6f %-6llu %-6llu %-5d "
                "%-5d %-6d %-5d\n",
                summary.policy.c_str(), summary.emu, summary.lc_throughput,
                summary.be_throughput, summary.slo_violation_rate,
                (unsigned long long)summary.sla_violations,
                (unsigned long long)summary.be_kills, summary.solo_groups,
                summary.groups_unplaced, summary.placement_churn,
                summary.machines_used);
  }
  if (faults != nullptr) {
    std::printf("%-20s %-7s %-10s %-7s %-5s %-9s %-12s %-9s\n", "policy",
                "failed", "disrupted", "failov", "lost", "migrated",
                "down_grp_s", "latency");
    for (const ClusterSummary& summary : summaries) {
      std::printf("%-20s %-7d %-10d %-7d %-5d %-9d %-12.2f %-9.2f\n",
                  summary.policy.c_str(), summary.machines_failed,
                  summary.groups_disrupted, summary.groups_failed_over,
                  summary.groups_lost, summary.pods_migrated,
                  summary.down_group_seconds,
                  summary.worst_failover_latency_s);
    }
    for (const ClusterSummary& summary : summaries) {
      std::printf("raw-failover %s down_group_seconds=%s "
                  "worst_failover_latency_s=%s\n",
                  summary.policy.c_str(),
                  ExactNum(summary.down_group_seconds).c_str(),
                  ExactNum(summary.worst_failover_latency_s).c_str());
    }
  }
  for (const ClusterSummary& summary : summaries) {
    std::printf("raw %s emu=%s slo_rate=%s tail_ratio=%s\n",
                summary.policy.c_str(), ExactNum(summary.emu).c_str(),
                ExactNum(summary.slo_violation_rate).c_str(),
                ExactNum(summary.worst_tail_ratio).c_str());
  }
  if (!obs_out.empty()) {
    std::printf("placement recordings written to %s\n", obs_out.c_str());
  }

  if (assert_order) {
    const ClusterSummary* rhythm = FindPolicy(summaries, kPolicyRhythmAware);
    const ClusterSummary* greedy = FindPolicy(summaries, kPolicyGreedy);
    const ClusterSummary* random = FindPolicy(summaries, kPolicyRandom);
    const ClusterSummary* packing = FindPolicy(summaries, kPolicyBinPacking);
    int failures = 0;
    const auto expect = [&failures](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "place_eval: order violated: %s\n", what);
        ++failures;
      }
    };
    if (rhythm != nullptr && greedy != nullptr) {
      expect(rhythm->emu >= greedy->emu,
             "emu(rhythm-aware) >= emu(greedy-interference)");
    }
    if (greedy != nullptr && random != nullptr) {
      expect(greedy->emu >= random->emu,
             "emu(greedy-interference) >= emu(random)");
    }
    if (rhythm != nullptr && packing != nullptr) {
      expect(rhythm->emu > packing->emu, "emu(rhythm-aware) > emu(bin-packing)");
      expect(rhythm->slo_violation_rate <= packing->slo_violation_rate,
             "slo_rate(rhythm-aware) <= slo_rate(bin-packing)");
    }
    if (rhythm != nullptr && random != nullptr) {
      expect(rhythm->emu > random->emu, "emu(rhythm-aware) > emu(random)");
      expect(rhythm->slo_violation_rate <= random->slo_violation_rate,
             "slo_rate(rhythm-aware) <= slo_rate(random)");
    }
    if (failures > 0) {
      return 1;
    }
    std::printf("policy ordering holds\n");
  }
  return 0;
}

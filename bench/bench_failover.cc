// Failure-domain benchmark: the 1,000-machine synthetic cluster swept over
// machine-loss rates, every loss schedule run twice — supervisor off (losses
// just take their groups down) and supervisor on (barrier-driven failover,
// DESIGN.md §14) — so the JSON shows exactly what failover buys on the same
// disaster. Per loss point the bench records SLO damage (down_group_seconds:
// demanded measurement time that went unserved), cluster EMU, recovered BE
// throughput, and the failover accounting from ClusterSummary.
//
// Losses are deterministic, not drawn: N machines evenly spaced over the
// roster (machine i*machines/N) all fail permanently mid-measure of the
// first epoch, the same scenario place_eval --fail-machines replays. The
// sweep is therefore a pure function of the seed — reruns and shard counts
// change nothing but wall_s.
//
// --assert-improvement (the failover-smoke CI gate) fails the bench unless,
// at every nonzero loss point, the supervisor strictly reduces
// down_group_seconds and does not reduce cluster EMU.
//
// Usage: bench_failover [output.json] [--assert-improvement]
//        (default: BENCH_failover.json in cwd)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace rhythm_bench;

namespace {

// The evenly-spaced permanent-loss schedule shared with place_eval
// --fail-machines: victims hit distinct placement regions deterministically.
std::shared_ptr<const FaultSchedule> LossSchedule(int count, int machines,
                                                  double at_s) {
  FaultSchedule schedule;
  for (int i = 0; i < count; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kMachineFailure;
    event.pod = static_cast<int>(static_cast<int64_t>(i) * machines / count);
    event.start_s = at_s;
    schedule.Add(event);
  }
  return std::make_shared<FaultSchedule>(std::move(schedule));
}

struct SideResult {
  ClusterSummary summary;
  double wall_s = 0.0;
};

SideResult RunSide(ClusterRunRequest request, bool supervisor_on) {
  request.supervisor.enabled = supervisor_on;
  const auto t0 = std::chrono::steady_clock::now();
  SideResult result;
  result.summary = RunCluster(request);
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

void WriteSide(JsonWriter& json, const char* key, const SideResult& side) {
  const ClusterSummary& s = side.summary;
  json.Key(key).BeginObject()
      .Key("emu").Number(s.emu)
      .Key("slo_violation_rate").Number(s.slo_violation_rate)
      .Key("be_throughput").Number(s.be_throughput)
      .Key("lc_throughput").Number(s.lc_throughput)
      .Key("down_group_seconds").Number(s.down_group_seconds)
      .Key("machines_failed").Int(s.machines_failed)
      .Key("machines_down_end").Int(s.machines_down_end)
      .Key("groups_disrupted").Int(s.groups_disrupted)
      .Key("groups_failed_over").Int(s.groups_failed_over)
      .Key("groups_lost").Int(s.groups_lost)
      .Key("pods_migrated").Int(s.pods_migrated)
      .Key("worst_failover_latency_s").Number(s.worst_failover_latency_s)
      .Key("degraded_barriers").Int(s.degraded_barriers)
      .Key("wall_s").Number(side.wall_s)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_failover.json";
  bool assert_improvement = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-improvement") == 0) {
      assert_improvement = true;
    } else {
      out_path = argv[i];
    }
  }

  const int machines = FastMode() ? 120 : 1000;
  const double warmup_s = FastMode() ? 2.0 : 10.0;
  const double measure_s = FastMode() ? 10.0 : 50.0;
  const int epochs = 2;
  // Mid-measure of the first epoch: victims are warm and serving, and the
  // second epoch then re-places the cluster around the dead machines.
  const double loss_at_s = warmup_s + 0.5 * measure_s;

  // Loss points as roster fractions; 0 is the control (both sides must agree
  // bit-for-bit when nothing fails).
  std::vector<int> loss_counts;
  for (double fraction : FastMode()
                             ? std::vector<double>{0.0, 0.02, 0.05}
                             : std::vector<double>{0.0, 0.01, 0.02, 0.05}) {
    loss_counts.push_back(static_cast<int>(fraction * machines + 0.5));
  }

  ClusterRunRequest base;
  base.spec = SyntheticClusterSpec(machines, 11);
  base.policy = kPolicyRhythmAware;
  base.seed = 11;
  base.warmup_s = warmup_s;
  base.measure_s = measure_s;
  base.epochs = epochs;

  JsonWriter json;
  json.BeginObject()
      .Key("bench").String("failover")
      .Key("fast_mode").Int(FastMode() ? 1 : 0)
      .Key("host_cores").UInt(std::thread::hardware_concurrency());
  json.Key("cluster").BeginObject()
      .Key("machines").Int(base.spec.machines)
      .Key("groups").Int(base.spec.TotalGroups())
      .Key("pods").Int(base.spec.TotalPods())
      .Key("epochs").Int(epochs)
      .Key("warmup_s").Number(warmup_s)
      .Key("measure_s").Number(measure_s)
      .Key("loss_at_s").Number(loss_at_s)
      .Key("seed").Int(11)
      .EndObject();

  std::printf("cluster: %d machines, %d groups, %d pods, loss at t=%g s\n",
              base.spec.machines, base.spec.TotalGroups(),
              base.spec.TotalPods(), loss_at_s);
  std::printf("%6s %12s %18s %18s %10s %10s\n", "lost", "supervisor",
              "down_group_s", "emu", "failov", "wall_s");

  int assertion_failures = 0;
  json.Key("loss_sweep").BeginObject();
  for (const int lost : loss_counts) {
    ClusterRunRequest request = base;
    if (lost > 0) {
      request.faults = LossSchedule(lost, machines, loss_at_s);
    }
    const SideResult off = RunSide(request, false);
    const SideResult on = RunSide(request, true);

    std::printf("%6d %12s %18.2f %18.6f %10d %10.2f\n", lost, "off",
                off.summary.down_group_seconds, off.summary.emu,
                off.summary.groups_failed_over, off.wall_s);
    std::printf("%6d %12s %18.2f %18.6f %10d %10.2f\n", lost, "on",
                on.summary.down_group_seconds, on.summary.emu,
                on.summary.groups_failed_over, on.wall_s);

    json.Key(std::to_string(lost)).BeginObject().Key("machines_lost").Int(lost);
    WriteSide(json, "supervisor_off", off);
    WriteSide(json, "supervisor_on", on);
    json.Key("improvement").BeginObject()
        .Key("down_group_seconds_saved")
        .Number(off.summary.down_group_seconds - on.summary.down_group_seconds)
        .Key("emu_delta").Number(on.summary.emu - off.summary.emu)
        .Key("be_throughput_delta")
        .Number(on.summary.be_throughput - off.summary.be_throughput)
        .EndObject()
        .EndObject();

    if (lost == 0) {
      // Control point: with nothing scheduled the supervisor must be
      // invisible (same placements, same seeds, same summaries).
      if (off.summary.emu != on.summary.emu ||
          off.summary.down_group_seconds != on.summary.down_group_seconds) {
        std::fprintf(stderr,
                     "FAIL: supervisor changed a fault-free run "
                     "(emu %.17g vs %.17g)\n",
                     off.summary.emu, on.summary.emu);
        ++assertion_failures;
      }
      continue;
    }
    if (assert_improvement) {
      if (on.summary.groups_failed_over <= 0) {
        std::fprintf(stderr,
                     "FAIL: %d losses produced no failovers to measure\n",
                     lost);
        ++assertion_failures;
      }
      if (on.summary.down_group_seconds >= off.summary.down_group_seconds) {
        std::fprintf(stderr,
                     "FAIL: %d losses: supervisor did not reduce SLO damage "
                     "(down_group_seconds %.2f -> %.2f)\n",
                     lost, off.summary.down_group_seconds,
                     on.summary.down_group_seconds);
        ++assertion_failures;
      }
      if (on.summary.emu < off.summary.emu) {
        std::fprintf(stderr,
                     "FAIL: %d losses: supervisor reduced cluster EMU "
                     "(%.17g -> %.17g)\n",
                     lost, off.summary.emu, on.summary.emu);
        ++assertion_failures;
      }
    }
  }
  json.EndObject().EndObject();

  if (!WriteFile(out_path, std::move(json).str() + "\n")) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (assertion_failures > 0) {
    std::fprintf(stderr, "FAIL: %d failover assertions violated\n",
                 assertion_failures);
    return 1;
  }
  if (assert_improvement) {
    std::printf("failover improvement holds at every loss point\n");
  }
  return 0;
}

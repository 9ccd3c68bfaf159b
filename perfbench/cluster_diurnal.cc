// cluster_diurnal: one day of a few hundred machines under the rhythm-aware
// policy and the Rhythm controller, as a single RunCluster call with three
// epochs (night / peak / evening). It is the workload where the sharded
// engine, barrier cadence, the serial per-epoch trial build and large-scale
// placement dominate; the serve, trace and analysis modules do no work.
//
// Its requests are the calls. The timed phase runs calls back to back until
// --seconds is used (at least three) and reports medians, because one call
// on a shared 4-core box varies by about 10%. Calls come in pairs: a fresh
// request (a day seed not evaluated before in the process), then the same
// request again. After the phase, the peak epoch's placed groups are re-run
// standalone through Trial: these are the workload's probes (small queries
// about one group of the day) and its output check.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/expected_rollup.h"
#include "src/cluster/app_thresholds.h"
#include "src/place/cluster_engine.h"
#include "src/place/interference_score.h"
#include "src/runner/trial.h"

namespace perfbench {
namespace {

using namespace rhythm;

constexpr int kMachines = 200;
// The machine population is fixed; --seed drives the day's randomness (every
// group trial's streams, the policy seed and the probe schedule). Drawing a
// new population per seed moves the call's cost by about 10% between seeds.
constexpr uint64_t kSpecSeed = 1;
constexpr int kShards = 2;
constexpr int kEpochs = 3;
constexpr double kEpochScale[kEpochs] = {0.70, 1.00, 0.85};
// Set-up repetitions, spread over about a second: one set-up takes well
// under a millisecond, and the box's speed swings from second to second, so
// back-to-back repetitions all sample the same state.
constexpr int kSetupReps = 61;
constexpr auto kSetupPause = std::chrono::milliseconds(20);
constexpr int kMinCalls = 3;
// Probes re-run every placed group of the peak epoch: a seeded sample of
// groups made the slowest probe swing by 25-30% with which groups it drew.
constexpr int kProbeEpoch = 1;
constexpr const char* kTracedPolicy = "perfbench-traced-rhythm-aware";

const LcAppKind kApps[] = {LcAppKind::kEcommerce, LcAppKind::kRedis, LcAppKind::kSolr,
                           LcAppKind::kElasticsearch, LcAppKind::kElgg};


// Everything the run uses, generated from the seed before set-up starts.
struct Inputs {
  std::vector<uint64_t> day_seeds;  // request seed of each fresh call.
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  InputRng rng(seed ^ 0x636c7573746572ULL);
  in.day_seeds.push_back(seed);  // the default seed's rollup is committed.
  for (int i = 1; i < 16; ++i) {
    in.day_seeds.push_back(1 + rng.Below(1000000000));
  }
  return in;
}

ClusterRunRequest MakeRequest(uint64_t day_seed) {
  ClusterRunRequest request;
  request.spec = SyntheticClusterSpec(kMachines, kSpecSeed);
  request.policy = kPolicyRhythmAware;
  request.controller = ControllerKind::kRhythm;
  request.seed = day_seed;
  request.epochs = kEpochs;
  request.epoch_load_scale.assign(std::begin(kEpochScale), std::end(kEpochScale));
  return request;
}

RunnerOptions Pinned() {
  RunnerOptions options;
  options.jobs = kShards;
  options.shards = kShards;
  return options;
}

// Exact text of a double: hexfloat round-trips every bit.
std::string Hex(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string SummaryKey(const RunSummary& s) {
  std::string key;
  for (double v : {s.lc_throughput, s.be_throughput, s.emu, s.cpu_util, s.membw_util,
                   s.worst_tail_ms, s.worst_tail_ratio, s.recovery_s}) {
    key += Hex(v);
    key += ',';
  }
  for (uint64_t v : {s.sla_violations, s.be_kills, s.crashes, s.crash_be_losses,
                     s.be_withdrawals, s.stale_ticks, s.failed_actuations, s.backoff_holds,
                     s.jitter_holds, s.oscillation_trips, s.slack_violation_ticks,
                     s.invariant_violations_total}) {
    key += std::to_string(v);
    key += ',';
  }
  key += s.recovered ? 'r' : 'u';
  for (const PodSummary& pod : s.pods) {
    for (double v : {pod.be_throughput, pod.cpu_util, pod.membw_util, pod.be_instances}) {
      key += '|';
      key += Hex(v);
    }
  }
  return key;
}

// The rollup compared against committed values for the default seed.
std::string RollupText(const ClusterSummary& s) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "emu=%.17g lc_throughput=%.17g be_throughput=%.17g "
                "slo_violation_rate=%.17g groups_placed=%d placement_churn=%d",
                s.emu, s.lc_throughput, s.be_throughput, s.slo_violation_rate,
                s.groups_placed, s.placement_churn);
  return buffer;
}

// Everything a call returns except the policy name and label, which differ
// between the plain and the traced calls by construction.
std::string ClusterKey(const ClusterSummary& s) {
  std::string key = RollupText(s);
  for (double v : {s.cpu_util, s.membw_util, s.worst_tail_ratio}) {
    key += ' ';
    key += Hex(v);
  }
  for (uint64_t v : {static_cast<uint64_t>(s.machines_used), s.sla_violations, s.be_kills}) {
    key += ' ';
    key += std::to_string(v);
  }
  for (const AppClusterStats& app : s.per_app) {
    key += '\n';
    key += LcAppKindName(app.app);
    for (uint64_t v : {static_cast<uint64_t>(app.trials), static_cast<uint64_t>(app.unplaced),
                       app.sla_violations}) {
      key += ',';
      key += std::to_string(v);
    }
    for (double v : {app.emu, app.lc_throughput, app.slo_violation_rate, app.worst_tail_ratio}) {
      key += ',';
      key += Hex(v);
    }
  }
  for (const GroupOutcome& g : s.groups) {
    key += '\n';
    for (int v : {g.epoch, g.group, g.incarnation, static_cast<int>(g.placed),
                  static_cast<int>(g.run_solo), static_cast<int>(g.be), g.first_machine}) {
      key += std::to_string(v);
      key += ',';
    }
    key += Hex(g.score);
    key += ' ';
    key += SummaryKey(g.summary);
  }
  return key;
}

// The trial the engine runs for one placed group, rebuilt from the public
// pieces: DeriveGroupSeed, the scaled load and the placement model's
// thresholds (all-zero loadlimits for a solo group).
RunRequest GroupTrialRequest(const ClusterRunRequest& request, const GroupOutcome& outcome,
                             int groups_per_epoch) {
  RunRequest trial;
  trial.app = outcome.app;
  trial.be = outcome.be;
  trial.controller = request.controller;
  trial.hardening = request.hardening;
  trial.seed = DeriveGroupSeed(request.seed, outcome.epoch, groups_per_epoch, outcome.group);
  trial.warmup_s = request.warmup_s;
  trial.measure_s = request.measure_s;
  trial.load = outcome.load;
  if (outcome.run_solo) {
    trial.thresholds.assign(static_cast<size_t>(outcome.pods), ServpodThresholds{0.0, 0.5});
  } else {
    for (const PodPlacementModel& pod : DefaultPlacementModel(outcome.app).pods) {
      trial.thresholds.push_back(pod.thresholds);
    }
  }
  return trial;
}

// Hooks of a traced call: a registered wrapper policy that times Decide,
// a model_provider that times DefaultPlacementModel, and on_tick timestamps.
struct CallTrace {
  double entry = 0.0;
  double exit = 0.0;
  std::vector<std::pair<int, double>> ticks;  // (epoch, wall time)
  double decide_s = 0.0;
  double model_s = 0.0;
  uint64_t model_calls = 0;
  std::vector<std::pair<double, double>> decides;
  std::vector<std::pair<double, double>> models;
};

CallTrace* g_call = nullptr;  // the traced call in progress (one at a time).

class TimedPolicy : public PlacementPolicy {
 public:
  explicit TimedPolicy(uint64_t seed)
      : inner_(MakePlacementPolicy(kPolicyRhythmAware, seed)), name_(kTracedPolicy) {}
  const std::string& name() const override { return name_; }
  void OnTick(const ClusterView& view) override { inner_->OnTick(view); }
  std::vector<PlacementDecision> Decide(const ClusterView& view) override {
    const double start = NowS();
    std::vector<PlacementDecision> decisions = inner_->Decide(view);
    const double end = NowS();
    if (g_call != nullptr) {
      g_call->decide_s += end - start;
      g_call->decides.emplace_back(start, end);
    }
    return decisions;
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
  std::string name_;
};

struct Call {
  size_t day = 0;  // index into Inputs::day_seeds.
  bool fresh = false;
  ClusterSummary summary;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct Phase {
  std::vector<Call> calls;
  std::vector<CallTrace> traces;
  double peak_rss_mb = 0.0;
};

// The timed phase: calls in (fresh, repeat) pairs of day requests until
// `seconds` is used, at least kMinCalls of them; or, when `exact_calls` is
// set, exactly that many. With `tracer`, every call carries the traced hooks.
Phase RunPhase(const ClusterRunRequest& base, const Inputs& in, double seconds,
               Tracer* tracer, size_t exact_calls = 0) {
  Phase phase;
  ClusterRunRequest request = base;
  if (tracer != nullptr) {
    request.policy = kTracedPolicy;
    request.model_provider = [](LcAppKind app) {
      const double start = NowS();
      AppPlacementModel model = DefaultPlacementModel(app);
      const double end = NowS();
      if (g_call != nullptr) {
        g_call->model_s += end - start;
        ++g_call->model_calls;
        g_call->models.emplace_back(start, end);
      }
      return model;
    };
    request.on_tick = [](const ClusterTickSnapshot& snap) {
      if (g_call != nullptr) {
        g_call->ticks.emplace_back(snap.epoch, NowS());
      }
    };
  }
  ResetPeakRss();
  const double t0 = NowS();
  const auto more = [&](size_t k) {
    if (exact_calls > 0) {
      return k < exact_calls;
    }
    return k < static_cast<size_t>(kMinCalls) || NowS() - t0 < seconds;
  };
  for (size_t k = 0; k < 2 * in.day_seeds.size() && more(k); ++k) {
    Call call;
    call.day = k / 2;
    call.fresh = k % 2 == 0;
    request.seed = in.day_seeds[call.day];
    CallTrace trace;
    g_call = tracer != nullptr ? &trace : nullptr;
    trace.entry = NowS();
    const double cpu0 = ProcessCpuS();
    call.summary = RunCluster(request, Pinned());
    call.cpu_s = ProcessCpuS() - cpu0;
    trace.exit = NowS();
    call.wall_s = trace.exit - trace.entry;
    g_call = nullptr;
    phase.calls.push_back(std::move(call));
    if (tracer != nullptr) {
      phase.traces.push_back(std::move(trace));
    }
  }
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

std::string CacheFile(LcAppKind app) { return ThresholdDiskCachePath(app); }

bool FileExists(const std::string& path) {
  struct stat st{};
  return !path.empty() && ::stat(path.c_str(), &st) == 0;
}

// The workload's set-up: every app's thresholds in the process-wide cache,
// loaded from the benchmark's cache files, and the request built.
ClusterRunRequest SetUp(const Inputs& in) {
  for (LcAppKind app : kApps) {
    if (!FileExists(CacheFile(app))) {
      throw std::runtime_error(std::string("threshold cache has no entry for ") +
                               LcAppKindName(app) + " (run the prepare step)");
    }
    CachedAppThresholds(app);
  }
  return MakeRequest(in.day_seeds.front());
}

// One set-up's work, repeatable within a process: every app's thresholds
// read from the benchmark's cache through the public calls CachedAppThresholds
// makes on a cold process-wide cache, and the request built. Returns the
// seconds taken, or a negative value when an entry is missing.
double TimedSetUp(const Inputs& in) {
  const double start = NowS();
  for (LcAppKind app : kApps) {
    AppThresholds loaded;
    if (!LoadThresholdsFromDisk(CacheFile(app), MakeApp(app).pod_count(), &loaded)) {
      return -1.0;
    }
  }
  const ClusterRunRequest request = MakeRequest(in.day_seeds.front());
  const double end = NowS();
  return request.spec.TotalGroups() > 0 ? end - start : -1.0;
}

// Standalone re-run of one placed group through Trial, timed per stage.
struct GroupRun {
  RunSummary summary;
  double build_s = 0.0;
  double start_s = 0.0;
  double advance_s = 0.0;
  uint64_t events = 0;
  uint64_t requests = 0;
};

GroupRun RunGroup(const RunRequest& request, Tracer* tracer, int64_t id) {
  GroupRun run;
  const double a = NowS();
  Trial trial(request);
  const double b = NowS();
  trial.Start();
  const double c = NowS();
  trial.AdvanceTo(trial.end_time());
  const double d = NowS();
  run.summary = trial.Finish();
  const double e = NowS();
  run.events = trial.deployment().sim().executed_events();
  run.requests = trial.deployment().service().completed_requests();
  run.build_s = b - a;
  run.start_s = c - b;
  run.advance_s = d - c;
  if (tracer != nullptr) {
    const int64_t root = tracer->Add("runner.trial", a, e, -1, id);
    tracer->Add("runner.trial_build", a, b, root, id);
    tracer->Add("runner.trial_start", b, c, root, id);
    tracer->Add("runner.trial_advance", c, d, root, id);
    tracer->Add("runner.trial_finish", d, e, root, id);
  }
  return run;
}

}  // namespace

bool PrepareClusterCache(const std::string& cache_dir) {
  ::mkdir(cache_dir.c_str(), 0755);
  ::setenv("RHYTHM_THRESHOLD_CACHE", cache_dir.c_str(), 1);
  std::vector<LcAppKind> missing;
  for (LcAppKind app : kApps) {
    AppThresholds loaded;
    if (!LoadThresholdsFromDisk(CacheFile(app), MakeApp(app).pod_count(), &loaded)) {
      missing.push_back(app);
    }
  }
  // Characterizes the missing apps in parallel (CachedAppThresholds derives
  // distinct apps concurrently and writes each entry atomically).
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (LcAppKind app : missing) {
    workers.emplace_back([app, &ok] {
      try {
        CachedAppThresholds(app);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "prepare %s: %s\n", LcAppKindName(app), error.what());
        ok.store(false);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (LcAppKind app : kApps) {
    ok.store(ok.load() && FileExists(CacheFile(app)));
  }
  return ok.load();
}

Result RunClusterDiurnal(const Options& options, Tracer* tracer) {
  Result result;
  const Inputs in = MakeInputs(options.seed);
  ::setenv("RHYTHM_THRESHOLD_CACHE", options.cache_dir.c_str(), 1);
  result.Config("machines", std::to_string(kMachines) + " (SyntheticClusterSpec seed " +
                                std::to_string(kSpecSeed) + ")");
  result.Config("epochs", "3 (load scale 0.7/1.0/0.85)");
  result.Config("policy", kPolicyRhythmAware);
  result.Config("shards", std::to_string(kShards));
  result.Config("cache_mode", "read-only threshold cache at " + options.cache_dir);

  // Set-up: load the five apps' thresholds from the benchmark's cache into
  // the process-wide cache the engine reads, and build the spec. That cache
  // fills once per process, so the timed repetitions do the same loads
  // without it and the median is reported; the process then sets up for real.
  const double setup_begin = NowS();
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double seconds = TimedSetUp(in);
    if (!(seconds >= 0.0)) {
      throw std::runtime_error("threshold cache is incomplete (run the prepare step)");
    }
    setup_s.push_back(seconds);
    std::this_thread::sleep_for(kSetupPause);
  }
  const ClusterRunRequest request = SetUp(in);
  const double setup_rss_mb = PeakRssMb();
  result.Note("set-up samples: " + std::to_string(setup_s.size()) + ", " +
              std::to_string(kSetupPause.count()) + " ms apart; min/median/max (us) " +
              Num(Quantile(setup_s, 0.0) * 1e6) + " / " + Num(Median(setup_s) * 1e6) + " / " +
              Num(Quantile(setup_s, 1.0) * 1e6));
  if (tracer != nullptr) {
    tracer->Add("bench.setup", setup_begin, NowS());
  }

  const Phase plain = RunPhase(request, in, options.seconds, nullptr);
  Phase traced;
  if (tracer != nullptr) {
    RegisterPlacementPolicy(kTracedPolicy, [](uint64_t seed) {
      return std::make_unique<TimedPolicy>(seed);
    });
    // The same calls again, so every traced call has its day's fresh call
    // in the untraced phase to equal, however long each call takes.
    traced = RunPhase(request, in, options.seconds, tracer, plain.calls.size());
  }

  // -- Checks ---------------------------------------------------------------
  // Every call must equal the fresh call of its day, traced calls included.
  std::map<size_t, std::string> day_key;
  std::vector<const Call*> fresh_calls;
  for (const Call& call : plain.calls) {
    if (call.fresh) {
      day_key[call.day] = ClusterKey(call.summary);
      fresh_calls.push_back(&call);
    }
  }
  const Phase* phases[] = {&plain, &traced};
  for (const Phase* phase : phases) {
    for (const Call& call : phase->calls) {
      const auto fresh = day_key.find(call.day);
      result.Check(fresh != day_key.end() && ClusterKey(call.summary) == fresh->second,
                   "day " + std::to_string(call.day) + " differs between calls");
    }
  }
  if (options.seed == kExpectedRollupSeed) {
    const std::string rollup = RollupText(plain.calls.front().summary);
    result.Check(rollup == kExpectedRollup, "default-seed rollup: got \"" + rollup + "\"");
  }
  // Probes: the peak epoch's placed groups of the first day, re-run
  // standalone and required to match their GroupOutcome bit for bit.
  const int groups_per_epoch = request.spec.TotalGroups();
  std::vector<GroupRun> probes;
  std::vector<double> probe_ms;
  for (const GroupOutcome& g : plain.calls.front().summary.groups) {
    if (!g.placed || g.incarnation != 0 || g.epoch != kProbeEpoch) {
      continue;
    }
    const RunRequest trial = GroupTrialRequest(request, g, groups_per_epoch);
    const double start = NowS();
    probes.push_back(RunGroup(trial, tracer, static_cast<int64_t>(probes.size())));
    probe_ms.push_back((NowS() - start) * 1e3);
    result.Check(SummaryKey(probes.back().summary) == SummaryKey(g.summary),
                 "group e" + std::to_string(g.epoch) + "/g" + std::to_string(g.group) +
                     " standalone Trial differs from its GroupOutcome");
  }

  // -- Metrics --------------------------------------------------------------
  std::vector<double> wall_ms, cpu_s, fresh_ms, repeat_ms;
  for (const Call& call : plain.calls) {
    wall_ms.push_back(call.wall_s * 1e3);
    cpu_s.push_back(call.cpu_s);
    (call.fresh ? fresh_ms : repeat_ms).push_back(call.wall_s * 1e3);
  }
  const double run_s = Median(wall_ms) / 1e3;
  std::string walls;
  for (const Call& call : plain.calls) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " %.3f%c", call.wall_s, call.fresh ? 'f' : 'r');
    walls += buffer;
  }
  result.Note("samples: calls " + std::to_string(wall_ms.size()) + " (fresh " +
              std::to_string(fresh_ms.size()) + ", repeat " + std::to_string(repeat_ms.size()) +
              "); probes " + std::to_string(probe_ms.size()) + " (" +
              std::to_string(SamplesBeyond(probe_ms, 0.99)) + " beyond p99)");
  result.Note("call wall times (s):" + walls);
  result.Note("groups placed per call: " +
              std::to_string(plain.calls.front().summary.groups_placed));

  if (tracer == nullptr) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("setup_rss_mb", setup_rss_mb, "MB");
    result.Add("run_s", run_s, "s");
    result.Add("cpu_s", Median(cpu_s), "CPU-s");
    result.Add("peak_rss_mb", plain.peak_rss_mb, "MB");
    result.Add("fresh_p50_ms", Quantile(fresh_ms, 0.50), "ms");
    result.Add("repeat_p50_ms", Quantile(repeat_ms, 0.50), "ms");
    result.Note("tails (per-layer metrics; too noisy on a shared box for a bound): "
                "fresh_p99_ms " + Num(Quantile(fresh_ms, 0.99)) + " ms, probe_p99_ms " +
                Num(Quantile(probe_ms, 0.99)) + " ms");
    return result;
  }

  // Traced: per-layer numbers from the traced calls' hooks (medians over
  // calls) and from the probes' Trial stages.
  std::vector<double> decide_ms, model_ms, model_calls, windows, gap_ms, rollup_ms,
      serial_share, busy, traced_wall;
  std::vector<double> all_windows_ms;
  for (size_t c = 0; c < traced.traces.size(); ++c) {
    const CallTrace& t = traced.traces[c];
    const Call& call = traced.calls[c];
    const int64_t id = static_cast<int64_t>(c);
    const int64_t root = tracer->Add("cluster.run", t.entry, t.exit, -1, id);
    std::vector<double> call_windows;
    for (size_t i = 1; i < t.ticks.size(); ++i) {
      if (t.ticks[i].first == t.ticks[i - 1].first) {
        call_windows.push_back((t.ticks[i].second - t.ticks[i - 1].second) * 1e3);
        tracer->Add("sim.window", t.ticks[i - 1].second, t.ticks[i].second, root, id);
      }
    }
    // An epoch's serial part: from call entry or the previous epoch's last
    // tick to the end of the last Decide or model_provider call before the
    // epoch's first tick. That covers the harvest, placement and the trial
    // build and Start of every placed group but the last (the engine asks
    // for each group's model just before building its trial; no hook fires
    // later before the first window runs).
    std::vector<std::pair<double, double>> hooks = t.decides;
    hooks.insert(hooks.end(), t.models.begin(), t.models.end());
    struct Gap {
      double start, end;
      int64_t span;
    };
    std::vector<Gap> gaps;
    double gaps_ms = 0.0;
    double previous = t.entry;
    for (size_t i = 0; i < t.ticks.size(); ++i) {
      if (i == 0 || t.ticks[i].first != t.ticks[i - 1].first) {
        double serial_end = previous;
        for (const auto& [a, b] : hooks) {
          if (a >= previous && b <= t.ticks[i].second) {
            serial_end = std::max(serial_end, b);
          }
        }
        gaps_ms += (serial_end - previous) * 1e3;
        gaps.push_back({previous, serial_end,
                        tracer->Add("place.epoch_gap", previous, serial_end, root, id)});
      }
      previous = t.ticks[i].second;
    }
    // Decide and model calls are children of the epoch gap they fall in.
    const auto parent_of = [&](double a, double b) {
      for (const Gap& gap : gaps) {
        if (a >= gap.start && b <= gap.end) {
          return gap.span;
        }
      }
      return root;
    };
    for (const auto& [a, b] : t.decides) {
      tracer->Add("place.decide", a, b, parent_of(a, b), id);
    }
    for (const auto& [a, b] : t.models) {
      tracer->Add("place.model", a, b, parent_of(a, b), id);
    }
    const double last_tick = t.ticks.empty() ? t.entry : t.ticks.back().second;
    const double rollup = (t.exit - last_tick) * 1e3;
    tracer->Add("place.rollup", last_tick, t.exit, root, id);
    decide_ms.push_back(t.decide_s * 1e3);
    model_ms.push_back(t.model_s * 1e3);
    model_calls.push_back(static_cast<double>(t.model_calls));
    windows.push_back(static_cast<double>(t.ticks.size()));
    gap_ms.push_back(gaps_ms);
    rollup_ms.push_back(rollup);
    serial_share.push_back((gaps_ms + rollup) / (call.wall_s * 1e3));
    busy.push_back(call.cpu_s / call.wall_s);
    traced_wall.push_back(call.wall_s);
    all_windows_ms.insert(all_windows_ms.end(), call_windows.begin(), call_windows.end());
  }
  std::vector<double> build_ms, start_ms;
  double advance_s = 0.0;
  double events = 0.0;
  double requests = 0.0;
  for (const GroupRun& run : probes) {
    build_ms.push_back(run.build_s * 1e3);
    start_ms.push_back(run.start_s * 1e3);
    advance_s += run.advance_s;
    events += static_cast<double>(run.events);
    requests += static_cast<double>(run.requests);
  }
  result.Add("fresh_p99_ms", Quantile(fresh_ms, 0.99), "ms");
  result.Add("probe_p99_ms", Quantile(probe_ms, 0.99), "ms");
  result.Add("place.decide_ms", Median(decide_ms), "ms");
  result.Add("place.model_ms", Median(model_ms), "ms");
  result.Add("place.model_calls", Median(model_calls), "count");
  result.Add("place.groups_placed", plain.calls.front().summary.groups_placed, "count");
  result.Add("sim.windows", Median(windows), "count");
  result.Add("sim.window_ms_p50", Quantile(all_windows_ms, 0.5), "ms");
  result.Add("sim.window_ms_p90", Quantile(all_windows_ms, 0.9), "ms");
  result.Add("sim.busy_cores", Median(busy), "cores");
  result.Add("place.epoch_gap_ms", Median(gap_ms), "ms");
  result.Add("place.rollup_ms", Median(rollup_ms), "ms");
  result.Add("place.serial_share", Median(serial_share), "ratio");
  result.Add("runner.trial_build_ms", Median(build_ms), "ms");
  result.Add("runner.trial_start_ms", Median(start_ms), "ms");
  result.Add("runner.ns_per_request", requests > 0 ? advance_s * 1e9 / requests : 0.0, "ns");
  result.Add("sim.events_per_request", requests > 0 ? events / requests : 0.0, "count");
  result.Add("workload.requests",
             probes.empty() ? 0.0 : requests / static_cast<double>(probes.size()), "count");
  result.Add("bench.trace_overhead_s", Median(traced_wall) - run_s, "s");
  result.Note("traced calls: " + std::to_string(traced.calls.size()) +
              "; windows measured: " + std::to_string(all_windows_ms.size()));
  return result;
}

}  // namespace perfbench

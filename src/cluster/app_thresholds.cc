#include "src/cluster/app_thresholds.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "src/cluster/deployment.h"
#include "src/cluster/metrics.h"
#include "src/common/env.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/shard_pool.h"

namespace rhythm {

bool SlacklimitProbeViolates(LcAppKind app, const std::vector<ServpodThresholds>& thresholds,
                             double load, BeJobKind be, uint64_t seed,
                             const ThresholdOptions& options) {
  DeploymentConfig config;
  config.app_kind = app;
  config.be_kind = be;
  config.controller = ControllerKind::kRhythm;
  config.thresholds = thresholds;
  config.seed = seed;
  Deployment deployment(config);
  const ConstantLoad profile(load);
  deployment.Start(&profile);
  deployment.RunFor(options.probe_warmup_s);
  const double t0 = deployment.sim().Now();
  const uint64_t violations_before = deployment.TotalSlaViolations();
  deployment.RunFor(options.probe_measure_s);
  if (deployment.TotalSlaViolations() > violations_before) {
    return true;
  }
  // A probe that merely grazes the SLA is already too aggressive: the
  // worst per-second tail of a longer production run would cross it.
  const double worst = deployment.tail_series().MaxIn(t0, deployment.sim().Now());
  return worst > 0.96 * deployment.sla_ms();
}

namespace {

// One app's state in a derivation plan: filled by its phase-1 task, then
// read by its probe tasks.
struct AppPlan {
  AppThresholds result;
  std::optional<SpeculativeSlacklimitSearch> search;
};

// Probe `probe` of Algorithm 1 iteration `iteration` for the plan's app
// `app`; `probe` indexes probe_loads × probe_bes, loads outer.
struct ProbeTask {
  size_t app;
  int iteration;
  size_t probe;
};

// Runs task(i) for every i in [0, count) on `pool`; shards claim indices in
// increasing order. Returns each task's exception, null where it returned.
std::vector<std::exception_ptr> RunTasks(ShardPool& pool, size_t count,
                                         const std::function<void(size_t)>& task) {
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  pool.RunPhase([&](int) {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  return errors;
}

}  // namespace

std::vector<AppThresholds> DeriveAppThresholds(const std::vector<LcAppKind>& apps,
                                               const ThresholdOptions& options) {
  const size_t probes = options.probe_loads.size() * options.probe_bes.size();
  // Wide enough for the larger phase, never wider than it can use.
  const size_t most_tasks =
      apps.size() * std::max<size_t>(1, probes * std::max(options.max_iterations, 0));
  ShardPool pool(static_cast<int>(std::min<size_t>(DefaultJobCount(), most_tasks)));
  std::vector<AppPlan> plans(apps.size());

  // Phase 1, one task per app: the solo profile (request tracer on), the
  // contributions (Eq. 1-5), the loadlimits from the CoV curves (Figure 8
  // rule) and Algorithm 1's candidate slacklimits. A profile stays one
  // task: its levels' tail windows would be resident at once otherwise.
  const std::vector<std::exception_ptr> profile_errors = RunTasks(pool, apps.size(), [&](size_t i) {
    const AppSpec app = MakeApp(apps[i]);
    AppThresholds& result = plans[i].result;
    result.app = apps[i];
    result.profile = ProfileSolo(apps[i], DefaultProfileLevels(), options.profile);
    result.contributions = AnalyzeContributions(result.profile.matrix, app.call_root);
    result.pods.resize(app.pod_count());
    for (int pod = 0; pod < app.pod_count(); ++pod) {
      result.pods[pod].loadlimit =
          DeriveLoadlimit(result.profile.levels, result.profile.pod_cov[pod]);
    }
    plans[i].search.emplace(NormalizedContributions(result.contributions),
                            options.max_iterations);
  });
  for (const std::exception_ptr& error : profile_errors) {  // list order.
    if (error) {
      std::rethrow_exception(error);
    }
  }

  // Phase 2, one task per (app, iteration, probe), iteration-major and apps
  // in list order, so the lowest iterations, which decide every answer, run
  // first. Probe j of iteration i takes the seed the serial chain gives it
  // (every iteration before the violating one runs all its probes there),
  // and a task past its app's lowest violating iteration is skipped.
  std::vector<ProbeTask> tasks;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    for (size_t app = 0; app < apps.size(); ++app) {
      if (iteration <= plans[app].search->iterations()) {
        for (size_t probe = 0; probe < probes; ++probe) {
          tasks.push_back({app, iteration, probe});
        }
      }
    }
  }
  const uint64_t first_seed = options.profile.seed * 7919;
  const std::vector<std::exception_ptr> probe_errors = RunTasks(pool, tasks.size(), [&](size_t t) {
    const ProbeTask& task = tasks[t];
    AppPlan& plan = plans[task.app];
    if (!plan.search->Open(task.iteration)) {
      return;
    }
    std::vector<ServpodThresholds> thresholds = plan.result.pods;
    const std::vector<double>& slacklimits = plan.search->candidate(task.iteration);
    for (size_t pod = 0; pod < thresholds.size(); ++pod) {
      thresholds[pod].slacklimit = slacklimits[pod];
    }
    const uint64_t seed = first_seed + probes * static_cast<uint64_t>(task.iteration - 1) +
                          task.probe + 1;
    if (SlacklimitProbeViolates(plan.result.app, thresholds,
                                options.probe_loads[task.probe / options.probe_bes.size()],
                                options.probe_bes[task.probe % options.probe_bes.size()],
                                seed, options)) {
      plan.search->Violated(task.iteration);
    }
  });
  // The earliest listed app's failure, and its first in task order.
  size_t failed = tasks.size();
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (probe_errors[t] && (failed == tasks.size() || tasks[t].app < tasks[failed].app)) {
      failed = t;
    }
  }
  if (failed < tasks.size()) {
    std::rethrow_exception(probe_errors[failed]);
  }

  std::vector<AppThresholds> results;
  for (AppPlan& plan : plans) {
    const std::vector<double> slacklimits = plan.search->Result();
    for (size_t pod = 0; pod < plan.result.pods.size(); ++pod) {
      plan.result.pods[pod].slacklimit = slacklimits[pod];
    }
    results.push_back(std::move(plan.result));
  }
  return results;
}

AppThresholds DeriveAppThresholds(LcAppKind app, const ThresholdOptions& options) {
  return std::move(DeriveAppThresholds(std::vector<LcAppKind>{app}, options).front());
}

namespace {

// Fingerprint of the model parameters that influence threshold derivation,
// so a stale record is rejected after recalibration.
uint64_t SpecFingerprint(const AppSpec& app) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ULL;
  };
  mix(app.maxload_qps);
  mix(app.sla_ms);
  for (const ComponentSpec& comp : app.components) {
    mix(comp.base_service_ms);
    mix(comp.sigma);
    mix(comp.load_slope);
    mix(comp.load_power);
    mix(comp.sigma_slope);
    mix(comp.sigma_power);
    mix(static_cast<double>(comp.workers));
    mix(comp.sensitivity.cpu);
    mix(comp.sensitivity.llc);
    mix(comp.sensitivity.dram);
    mix(comp.sensitivity.net);
    mix(comp.sensitivity.freq);
  }
  return hash;
}

// What a record of one app must match.
struct RecordKey {
  std::string fingerprint;  // SpecFingerprint as 16 hex digits.
  size_t pods = 0;
};

// The catalog is fixed at build time, so each app's key is computed once;
// a load then builds no AppSpec (the cache is read on every cold start).
const RecordKey& KeyOf(LcAppKind app) {
  static const std::map<LcAppKind, RecordKey>* keys = [] {
    auto* table = new std::map<LcAppKind, RecordKey>();
    for (LcAppKind kind : AllLcAppKinds()) {
      const AppSpec spec = MakeApp(kind);
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(SpecFingerprint(spec)));
      (*table)[kind] = RecordKey{hex, static_cast<size_t>(spec.pod_count())};
    }
    return table;
  }();
  return keys->at(app);
}

// A present, finite number member of `object`.
bool ReadFinite(const JsonValue& object, const char* key, double* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number() || !std::isfinite(value->number)) {
    return false;
  }
  *out = value->number;
  return true;
}

}  // namespace

void WriteThresholdRecord(const AppThresholds& thresholds, JsonWriter* out) {
  RHYTHM_CHECK(thresholds.contributions.size() == thresholds.pods.size());
  out->BeginObject()
      .Key("app").String(LcAppKindName(thresholds.app))
      .Key("fingerprint").String(KeyOf(thresholds.app).fingerprint)
      .Key("pods").BeginArray();
  for (size_t pod = 0; pod < thresholds.pods.size(); ++pod) {
    const PodContribution& c = thresholds.contributions[pod];
    out->BeginObject()
        .Key("loadlimit").Number(thresholds.pods[pod].loadlimit)
        .Key("slacklimit").Number(thresholds.pods[pod].slacklimit)
        .Key("contribution").Number(c.contribution)
        .Key("weight_p").Number(c.weight_p)
        .Key("correlation_rho").Number(c.correlation_rho)
        .Key("varcoef_v").Number(c.varcoef_v)
        .Key("alpha").Number(c.alpha)
        .EndObject();
  }
  out->EndArray().EndObject();
}

bool ReadThresholdRecord(const JsonValue& record, AppThresholds* out, std::string* error) {
  const auto reject = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  AppThresholds read;
  const JsonValue* name = record.Find("app");
  if (name == nullptr || !name->is_string() || !LcAppKindFromName(name->string, &read.app)) {
    return reject("threshold record names no known app");
  }
  const std::string app = LcAppKindName(read.app);
  const RecordKey& key = KeyOf(read.app);
  const JsonValue* fingerprint = record.Find("fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string() ||
      fingerprint->string != key.fingerprint) {
    return reject(app + " threshold record has a stale or missing fingerprint");
  }
  const JsonValue* pods = record.Find("pods");
  if (pods == nullptr || !pods->is_array() || pods->array.size() != key.pods) {
    return reject(app + " threshold record must hold " + std::to_string(key.pods) + " pods");
  }
  if (record.object.size() != 3) {
    return reject(app + " threshold record has unknown keys");
  }
  read.pods.resize(pods->array.size());
  read.contributions.resize(pods->array.size());
  for (size_t pod = 0; pod < pods->array.size(); ++pod) {
    const JsonValue& entry = pods->array[pod];
    ServpodThresholds& limits = read.pods[pod];
    PodContribution& c = read.contributions[pod];
    if (entry.object.size() != 7 || !ReadFinite(entry, "loadlimit", &limits.loadlimit) ||
        !ReadFinite(entry, "slacklimit", &limits.slacklimit) ||
        !ReadFinite(entry, "contribution", &c.contribution) ||
        !ReadFinite(entry, "weight_p", &c.weight_p) ||
        !ReadFinite(entry, "correlation_rho", &c.correlation_rho) ||
        !ReadFinite(entry, "varcoef_v", &c.varcoef_v) || !ReadFinite(entry, "alpha", &c.alpha) ||
        limits.loadlimit < 0.0 || limits.slacklimit < 0.0) {
      return reject(app + " threshold record has a malformed pod " + std::to_string(pod));
    }
  }
  *out = std::move(read);
  return true;
}

std::string ThresholdDiskCachePath(LcAppKind app) {
  const char* dir = std::getenv("RHYTHM_THRESHOLD_CACHE");
  if (dir == nullptr || dir[0] == '\0') {
    return {};
  }
  return std::string(dir) + "/" + LcAppKindName(app) + "-" + KeyOf(app).fingerprint +
         ".thresholds";
}

bool LoadThresholdsFromDisk(const std::string& path, int pods, AppThresholds* out) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) {
    return false;  // No entry yet: nothing to reject.
  }
  JsonValue record;
  AppThresholds loaded;
  std::string error;
  if (!ParseJson(bytes, &record, &error) || !ReadThresholdRecord(record, &loaded, &error)) {
    RHYTHM_LOG(kWarning) << "Rejected threshold cache entry " << path << ": " << error;
    return false;
  }
  if (static_cast<int>(loaded.pods.size()) != pods) {
    RHYTHM_LOG(kWarning) << "Rejected threshold cache entry " << path << ": it holds "
                         << LcAppKindName(loaded.app) << ", not an app of " << pods << " pods";
    return false;
  }
  *out = std::move(loaded);
  return true;
}

void SaveThresholdsToDisk(const std::string& path, const AppThresholds& thresholds) {
  // Published with WriteFileAtomic, so a reader racing this writer (another
  // thread of this process or another bench process sharing the cache
  // directory) always opens a complete entry.
  JsonWriter record;
  WriteThresholdRecord(thresholds, &record);
  if (!WriteFileAtomic(path, std::move(record).str() + "\n")) {
    RHYTHM_LOG(kWarning) << "Cannot write threshold cache entry " << path;
  }
}

namespace {

// One app's place in the process-wide cache. `value` is written once,
// under `mutex`, and then `filled` publishes it: a reader that sees it set
// reads `value` with no lock, and one that must not wait on a derivation
// in progress checks it alone.
struct Slot {
  std::mutex mutex;
  std::atomic<bool> filled{false};
  AppThresholds value;
};

// A fixed slot per catalog app, never moved, so callers racing on one app
// wait on its mutex while callers for different apps load or derive
// concurrently.
Slot& SlotOf(LcAppKind app) {
  static Slot* slots = new Slot[AllLcAppKinds().size()];
  RHYTHM_CHECK(static_cast<size_t>(app) < AllLcAppKinds().size());
  return slots[static_cast<size_t>(app)];
}

void Publish(Slot& slot, AppThresholds value) {
  slot.value = std::move(value);
  slot.filled.store(true);
}

bool Filled(LcAppKind app) { return SlotOf(app).filled.load(); }

}  // namespace

void CacheAppThresholds(const std::vector<LcAppKind>& apps) {
  std::vector<LcAppKind> cold;  // distinct, in list order.
  for (LcAppKind app : apps) {
    if (!Filled(app) && std::find(cold.begin(), cold.end(), app) == cold.end()) {
      cold.push_back(app);
    }
  }
  if (cold.empty()) {
    return;
  }
  // Hold every cold slot for the whole load-or-derive, taken in enum order
  // so that two callers sharing apps never deadlock.
  std::vector<LcAppKind> lock_order = cold;
  std::sort(lock_order.begin(), lock_order.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  for (LcAppKind app : lock_order) {
    locks.emplace_back(SlotOf(app).mutex);
  }

  std::vector<LcAppKind> derive;
  for (LcAppKind app : cold) {
    if (Filled(app)) {
      continue;  // another caller filled it while this one waited.
    }
    const std::string path = ThresholdDiskCachePath(app);
    AppThresholds loaded;
    if (!path.empty() && LoadThresholdsFromDisk(path, MakeApp(app).pod_count(), &loaded)) {
      if (loaded.app == app) {
        RHYTHM_LOG(kInfo) << "Loaded thresholds for " << LcAppKindName(app) << " from " << path;
        Publish(SlotOf(app), std::move(loaded));
        continue;
      }
      RHYTHM_LOG(kWarning) << "Rejected threshold cache entry " << path << ": it holds "
                           << LcAppKindName(loaded.app) << ", not " << LcAppKindName(app);
    }
    RHYTHM_LOG(kInfo) << "Deriving thresholds for " << LcAppKindName(app);
    derive.push_back(app);
  }
  if (derive.empty()) {
    return;  // no pool is built when nothing needs deriving.
  }
  std::vector<AppThresholds> derived = DeriveAppThresholds(derive);
  for (AppThresholds& record : derived) {
    const std::string path = ThresholdDiskCachePath(record.app);
    if (!path.empty()) {
      SaveThresholdsToDisk(path, record);
    }
    Publish(SlotOf(record.app), std::move(record));
  }
}

const AppThresholds& CachedAppThresholds(LcAppKind app) {
  if (!Filled(app)) {  // the lock-free fast path every trial build takes.
    CacheAppThresholds({app});
  }
  return SlotOf(app).value;
}

bool FillAppThresholds(AppThresholds record) {
  Slot& slot = SlotOf(record.app);
  const std::lock_guard<std::mutex> lock(slot.mutex);  // waits for a derivation.
  if (slot.filled.load()) {
    return false;
  }
  Publish(slot, std::move(record));
  return true;
}

std::vector<AppThresholds> CharacterizedAppThresholds() {
  std::vector<AppThresholds> records;
  for (LcAppKind app : AllLcAppKinds()) {  // enum order.
    if (Filled(app)) {
      const AppThresholds& value = SlotOf(app).value;
      records.push_back({app, value.pods, value.contributions, {}});
    }
  }
  return records;
}

}  // namespace rhythm

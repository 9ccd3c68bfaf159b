#include "src/cluster/app_thresholds.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "src/cluster/deployment.h"
#include "src/cluster/metrics.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace rhythm {

AppThresholds DeriveAppThresholds(LcAppKind app_kind, const ThresholdOptions& options) {
  AppThresholds result;
  result.app = app_kind;
  const AppSpec app = MakeApp(app_kind);
  const int pods = app.pod_count();

  // 1. Solo profile (request tracer on).
  result.profile = ProfileSolo(app_kind, DefaultProfileLevels(), options.profile);

  // 2. Contributions (Eq. 1-5).
  result.contributions = AnalyzeContributions(result.profile.matrix, app.call_root);
  const std::vector<double> normalized = NormalizedContributions(result.contributions);

  // 3. loadlimit per pod from the CoV curves (Figure 8 rule).
  result.pods.resize(pods);
  for (int pod = 0; pod < pods; ++pod) {
    result.pods[pod].loadlimit =
        DeriveLoadlimit(result.profile.levels, result.profile.pod_cov[pod]);
  }

  // 4. slacklimit via Algorithm 1. Each probe runs the co-location with the
  //    candidate limits and reports whether the SLA was violated.
  uint64_t probe_seed = options.profile.seed * 7919;
  const auto probe_once = [&](const std::vector<double>& slacklimits, double load,
                              BeJobKind be) {
    DeploymentConfig config;
    config.app_kind = app_kind;
    config.be_kind = be;
    config.controller = ControllerKind::kRhythm;
    config.thresholds.resize(pods);
    for (int pod = 0; pod < pods; ++pod) {
      config.thresholds[pod].loadlimit = result.pods[pod].loadlimit;
      config.thresholds[pod].slacklimit = slacklimits[pod];
    }
    config.seed = ++probe_seed;
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
  };
  const SlaProbe probe = [&](const std::vector<double>& slacklimits) {
    for (double load : options.probe_loads) {
      for (BeJobKind be : options.probe_bes) {
        if (probe_once(slacklimits, load, be)) {
          return true;
        }
      }
    }
    return false;
  };
  const std::vector<double> slacklimits =
      FindSlacklimits(normalized, probe, options.max_iterations);
  for (int pod = 0; pod < pods; ++pod) {
    result.pods[pod].slacklimit = slacklimits[pod];
  }
  return result;
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

// One app's place in the process-wide cache: `once` fills `value` exactly
// once, then `filled` publishes it to readers that must not wait on a
// derivation in progress.
struct Slot {
  std::once_flag once;
  std::atomic<bool> filled{false};
  AppThresholds value;
};

// A fixed slot per catalog app, never moved, so callers racing on one app
// block on its call_once while callers for different apps load or derive
// concurrently — a RunPlan touching five services characterizes them all
// in parallel.
Slot& SlotOf(LcAppKind app) {
  static Slot* slots = new Slot[AllLcAppKinds().size()];
  RHYTHM_CHECK(static_cast<size_t>(app) < AllLcAppKinds().size());
  return slots[static_cast<size_t>(app)];
}

// Fills `slot` with make() unless it is filled already; true when this call
// filled it.
template <typename Make>
bool FillOnce(Slot& slot, Make make) {
  bool filled = false;
  std::call_once(slot.once, [&] {
    slot.value = make();
    slot.filled.store(true);
    filled = true;
  });
  return filled;
}

AppThresholds LoadOrDerive(LcAppKind app) {
  const std::string path = ThresholdDiskCachePath(app);
  AppThresholds loaded;
  if (!path.empty() && LoadThresholdsFromDisk(path, MakeApp(app).pod_count(), &loaded)) {
    if (loaded.app == app) {
      RHYTHM_LOG(kInfo) << "Loaded thresholds for " << LcAppKindName(app) << " from " << path;
      return loaded;
    }
    RHYTHM_LOG(kWarning) << "Rejected threshold cache entry " << path << ": it holds "
                         << LcAppKindName(loaded.app) << ", not " << LcAppKindName(app);
  }
  RHYTHM_LOG(kInfo) << "Deriving thresholds for " << LcAppKindName(app);
  AppThresholds derived = DeriveAppThresholds(app);
  if (!path.empty()) {
    SaveThresholdsToDisk(path, derived);
  }
  return derived;
}

}  // namespace

const AppThresholds& CachedAppThresholds(LcAppKind app) {
  Slot& slot = SlotOf(app);
  FillOnce(slot, [app] { return LoadOrDerive(app); });
  return slot.value;
}

bool FillAppThresholds(AppThresholds record) {
  return FillOnce(SlotOf(record.app), [&record] { return std::move(record); });
}

std::vector<AppThresholds> CharacterizedAppThresholds() {
  std::vector<AppThresholds> records;
  for (LcAppKind app : AllLcAppKinds()) {  // enum order.
    const Slot& slot = SlotOf(app);
    if (slot.filled.load()) {
      records.push_back({app, slot.value.pods, slot.value.contributions, {}});
    }
  }
  return records;
}

}  // namespace rhythm

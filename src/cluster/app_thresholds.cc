#include "src/cluster/app_thresholds.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

#include "src/cluster/deployment.h"
#include "src/cluster/metrics.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace rhythm {

AppThresholds DeriveAppThresholds(LcAppKind app_kind, const ThresholdOptions& options) {
  AppThresholds result;
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
// so a stale disk-cache entry is ignored after recalibration.
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

}  // namespace

std::string ThresholdDiskCachePath(LcAppKind app) {
  const char* dir = std::getenv("RHYTHM_THRESHOLD_CACHE");
  if (dir == nullptr || dir[0] == '\0') {
    return {};
  }
  char name[256];
  std::snprintf(name, sizeof(name), "%s/%s-%016llx.thresholds", dir, LcAppKindName(app),
                static_cast<unsigned long long>(SpecFingerprint(MakeApp(app))));
  return name;
}

bool LoadThresholdsFromDisk(const std::string& path, int pods, AppThresholds* out) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return false;
  }
  out->pods.resize(pods);
  out->contributions.resize(pods);
  bool ok = true;
  for (int pod = 0; pod < pods && ok; ++pod) {
    ok = std::fscanf(file, "%lf %lf %lf %lf %lf %lf %lf", &out->pods[pod].loadlimit,
                     &out->pods[pod].slacklimit, &out->contributions[pod].contribution,
                     &out->contributions[pod].weight_p,
                     &out->contributions[pod].correlation_rho,
                     &out->contributions[pod].varcoef_v,
                     &out->contributions[pod].alpha) == 7;
  }
  std::fclose(file);
  return ok;
}

void SaveThresholdsToDisk(const std::string& path, const AppThresholds& thresholds) {
  // Published with WriteFileAtomic, so a reader racing this writer (another
  // thread of this process or another bench process sharing the cache
  // directory) always opens a complete entry.
  std::string text;
  for (size_t pod = 0; pod < thresholds.pods.size(); ++pod) {
    const PodContribution& c = thresholds.contributions[pod];
    for (double value : {thresholds.pods[pod].loadlimit, thresholds.pods[pod].slacklimit,
                         c.contribution, c.weight_p, c.correlation_rho, c.varcoef_v, c.alpha}) {
      text += ExactNum(value);
      text += ' ';
    }
    text.back() = '\n';
  }
  if (!WriteFileAtomic(path, text)) {
    RHYTHM_LOG(kWarning) << "Cannot write threshold cache entry " << path;
  }
}

const AppThresholds& CachedAppThresholds(LcAppKind app) {
  // Per-app slots under a short-lived map lock, each filled exactly once:
  // callers racing on the same app block on its call_once while callers for
  // different apps load or derive concurrently — a RunPlan touching five
  // services characterizes them all in parallel. Slots are node-stable, so
  // returned references stay valid for the process lifetime.
  struct Slot {
    std::once_flag once;
    AppThresholds value;
  };
  static std::mutex mutex;
  static std::map<LcAppKind, Slot>* cache = new std::map<LcAppKind, Slot>();
  Slot* slot;
  {
    std::lock_guard<std::mutex> lock(mutex);
    slot = &(*cache)[app];
  }
  std::call_once(slot->once, [app, slot] {
    const AppSpec spec = MakeApp(app);
    const std::string path = ThresholdDiskCachePath(app);
    if (!path.empty() && LoadThresholdsFromDisk(path, spec.pod_count(), &slot->value)) {
      RHYTHM_LOG(kInfo) << "Loaded thresholds for " << LcAppKindName(app) << " from " << path;
      return;
    }
    RHYTHM_LOG(kInfo) << "Deriving thresholds for " << LcAppKindName(app);
    slot->value = DeriveAppThresholds(app);
    if (!path.empty()) {
      SaveThresholdsToDisk(path, slot->value);
    }
  });
  return slot->value;
}

}  // namespace rhythm

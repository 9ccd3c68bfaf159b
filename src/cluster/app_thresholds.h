// End-to-end threshold derivation for LC applications: profile solo ->
// contributions -> loadlimits (CoV rule) -> slacklimits (Algorithm 1 with a
// mixed-BE probe). This is the one-time characterization Rhythm performs
// when a new LC service is deployed (§3.2), the one place a process keeps
// it (CachedAppThresholds), and the one JSON record that stores it on disk
// and in rhythmd snapshots.
//
// A derivation is one two-phase plan on one ShardPool, however many apps it
// covers: phase 1 profiles each app solo (one task per app), phase 2 runs
// every (app, iteration, probe) of Algorithm 1 as its own task, skipping
// those past the app's lowest violating iteration found so far. Each probe
// keeps its serial seed, so the result equals the serial search bit for
// bit at any width (DESIGN.md §8).

#ifndef RHYTHM_SRC_CLUSTER_APP_THRESHOLDS_H_
#define RHYTHM_SRC_CLUSTER_APP_THRESHOLDS_H_

#include <string>
#include <vector>

#include "src/analysis/contribution.h"
#include "src/cluster/profiler.h"
#include "src/common/json.h"
#include "src/control/thresholds.h"
#include "src/workload/app_catalog.h"

namespace rhythm {

struct AppThresholds {
  LcAppKind app = LcAppKind::kEcommerce;
  std::vector<ServpodThresholds> pods;
  std::vector<PodContribution> contributions;  // one per pod.
  ProfileResult profile;
};

struct ThresholdOptions {
  ProfileOptions profile;
  // Probe settings for Algorithm 1's run_system step. The paper recommends
  // probing with representative mixed-intensity BEs several times; each
  // candidate limit runs every (load, BE) combination below and counts as
  // violated if any run breaks (or grazes) the SLA.
  std::vector<double> probe_loads = {0.45, 0.80};
  double probe_warmup_s = 15.0;
  // Long enough for paced BE growth to reach its equilibrium allocation —
  // a shorter probe ends mid-ramp and overestimates how much slack survives.
  double probe_measure_s = 150.0;
  std::vector<BeJobKind> probe_bes = {BeJobKind::kWordcount, BeJobKind::kStreamDramBig};
  int max_iterations = 16;
};

// Characterizes `apps`, in list order, as one plan on min(DefaultJobCount(),
// tasks) shards (one shard inside another pool's phase). When a phase
// fails, the earliest listed app's exception is rethrown.
std::vector<AppThresholds> DeriveAppThresholds(const std::vector<LcAppKind>& apps,
                                               const ThresholdOptions& options = {});
// A one-app plan.
AppThresholds DeriveAppThresholds(LcAppKind app, const ThresholdOptions& options = {});

// One Algorithm 1 probe (the run_system step): runs `app` under the Rhythm
// controller at per-pod `thresholds` (loadlimits and candidate slacklimits)
// beside BE `be` at constant `load`, and reports whether the SLA was
// violated, or grazed (worst per-second tail above 96% of it), during the
// measure window. Probe j of iteration i of a derivation runs
// probe_loads[j / |BEs|] with probe_bes[j % |BEs|] and seed
// profile.seed * 7919 + P * (i - 1) + j + 1, P = |loads| * |BEs|: the seed
// the serial search, which draws one per probe in that order, gives it.
bool SlacklimitProbeViolates(LcAppKind app, const std::vector<ServpodThresholds>& thresholds,
                             double load, BeJobKind be, uint64_t seed,
                             const ThresholdOptions& options);

// The process's one threshold cache (as in the paper, each LC service is
// characterized once and every decision reuses it): every trial, placement
// model and rhythmd query reads an app's record here. When the
// RHYTHM_THRESHOLD_CACHE environment variable names a directory, the first
// caller loads the app's record from there, or derives it and writes it
// there, so separate bench binaries share one characterization pass. An
// entry that is stale, malformed or names another app is logged and
// re-derived over, like a missing one. Loaded records carry thresholds and
// contributions but no profile matrix.
//
// Thread-safe: concurrent callers for the same app block until one of them
// finishes the load-or-derive exactly once; callers for different apps
// derive in parallel (the parallel experiment runner depends on this). A
// cached app costs one atomic load, with no lock. An app's record, once
// there, never changes, so the returned reference stays valid for the
// process lifetime.
const AppThresholds& CachedAppThresholds(LcAppKind app);

// CachedAppThresholds for several apps at once (rhythmd's --prewarm): the
// distinct listed apps not cached yet load from the disk cache on the
// calling thread, and the rest derive as one DeriveAppThresholds plan, so
// their probes share one pool. No pool is built when nothing needs
// deriving. Holds every listed cold app's slot until it is filled.
void CacheAppThresholds(const std::vector<LcAppKind>& apps);

// Puts an already-validated record (a restored rhythmd snapshot's) in the
// cache unless this process has characterized record.app already: first
// fill wins, and a fill waits for a load or derivation in progress. True
// when `record` went in.
bool FillAppThresholds(AppThresholds record);

// A copy of every characterized app's record, in enum order and without
// the profile matrix. Never waits for a derivation in progress.
std::vector<AppThresholds> CharacterizedAppThresholds();

// The threshold record: one app's characterization as JSON, the form of a
// RHYTHM_THRESHOLD_CACHE entry and of each element of a rhythmd snapshot's
// "apps" array:
//
//   {"app":"Redis","fingerprint":"b2dba467de994504","pods":[{"loadlimit":…,
//    "slacklimit":…,"contribution":…,"weight_p":…,"correlation_rho":…,
//    "varcoef_v":…,"alpha":…},…]}
//
// The fingerprint hashes the app's model parameters, so a record taken
// before a recalibration stops reading. Doubles are %.17g: bit-exact.
void WriteThresholdRecord(const AppThresholds& thresholds, JsonWriter* out);

// Reads a record into *out (with an empty profile). False, with the reason
// in *error and *out untouched, unless the record has exactly the keys
// above, "app" is exactly a catalog name, "fingerprint" is that app's
// today, "pods" has exactly the app's pod count, and every pod field is a
// finite number with both limits non-negative.
bool ReadThresholdRecord(const JsonValue& record, AppThresholds* out, std::string* error);

// Disk-cache plumbing behind CachedAppThresholds, exposed so tests and
// tools can exercise it directly. An entry is one record plus a newline,
// published with WriteFileAtomic, so a concurrent reader sees either the
// old complete entry or the new one, never a torn write — within a process
// or across bench processes sharing one cache directory. The loader reads
// it with ReadFile and ReadThresholdRecord, also requires `pods` pods, and
// logs why it rejects an entry that exists; it does not check which app
// the caller wanted, so CachedAppThresholds compares `out->app` itself.
std::string ThresholdDiskCachePath(LcAppKind app);  // "" when cache disabled.
bool LoadThresholdsFromDisk(const std::string& path, int pods, AppThresholds* out);
void SaveThresholdsToDisk(const std::string& path, const AppThresholds& thresholds);

}  // namespace rhythm

#endif  // RHYTHM_SRC_CLUSTER_APP_THRESHOLDS_H_

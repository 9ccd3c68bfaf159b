// RhythmDaemon: the long-lived serving process behind `rhythmd`. It wires
// the HTTP server to the what-if evaluator and keeps the only state a
// serving instance accumulates:
//
//   * a warm threshold store — one threshold record per app (limits and
//     contributions, src/cluster/app_thresholds.h) copied out of
//     CachedAppThresholds the first time an app is served (or prewarmed at
//     startup), so a snapshot can carry the expensive one-time
//     characterization across restarts;
//   * audit counters — a monotone query sequence number plus per-endpoint
//     served/error counts, persisted with the snapshot so a restored daemon
//     keeps numbering where it left off;
//   * latency histograms — per-endpoint P² p50/p95/p99 under /metrics.
//
// Endpoints: POST /v1/whatif, GET|POST /v1/placements, GET /metrics
// (Prometheus text), GET /healthz, POST /v1/snapshot, POST /v1/restore.
//
// Determinism: a served /v1/whatif body is byte-identical to what
// EvalWhatIfJson returns for the same body in batch mode (`rhythmd
// --oneshot`) — both paths run the same parse -> Run()/RunCluster -> render
// pipeline, and nothing time- or instance-dependent leaks into response
// bodies (no Date headers, no timestamps; wall time appears only under
// /metrics).

#ifndef RHYTHM_SRC_SERVE_DAEMON_H_
#define RHYTHM_SRC_SERVE_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/common/p2_quantile.h"
#include "src/control/thresholds.h"
#include "src/runner/runner.h"
#include "src/serve/server.h"
#include "src/serve/whatif.h"
#include "src/workload/app_catalog.h"

namespace rhythm {

// Mutex-guarded per-app threshold records, without the profile matrix.
// Get() returns the stored record's pod limits, falling through to the
// process-wide CachedAppThresholds (deriving on first use) and memoizing its
// record here; Put() injects a restored record so a snapshot-warmed daemon
// serves trials without re-deriving.
class ThresholdStore {
 public:
  std::vector<ServpodThresholds> Get(LcAppKind app);
  // Stores `record` as record.app's, replacing any earlier one.
  void Put(AppThresholds record);
  // Stable (enum-ordered) copy of every stored record, for snapshots.
  std::vector<AppThresholds> All() const;

 private:
  mutable std::mutex mutex_;
  std::map<LcAppKind, AppThresholds> store_;
};

struct WhatIfEvalOptions {
  RunnerOptions runner;
  // When set, trial queries that name no explicit thresholds are filled from
  // the store (same values CachedAppThresholds would supply — results stay
  // bit-identical to a store-less run).
  ThresholdStore* warm = nullptr;
  // When non-empty, the query runs observed and its Recording is exported
  // here as a JSONL audit record. Recording is RNG-neutral: the response
  // body is unchanged.
  std::string audit_jsonl;
};

// The shared batch/served evaluation path: JSON body in, response JSON out.
// Throws std::invalid_argument on malformed input — messages starting
// "json:" are syntax errors (HTTP 400), the rest are schema errors (422).
std::string EvalWhatIfJson(const std::string& body,
                           const WhatIfEvalOptions& options);

struct DaemonOptions {
  ServerOptions server;
  RunnerOptions runner;
  // Default snapshot file for /v1/snapshot and /v1/restore bodies that name
  // no "path". Empty: those endpoints require an explicit path.
  std::string snapshot_path;
  // Directory for per-query audit recordings (whatif-<seq>.jsonl). Empty:
  // auditing off.
  std::string audit_dir;
  // Apps whose thresholds are derived (or disk-cache-loaded) before the
  // server opens its port, so first queries don't pay characterization.
  // Distinct apps prewarm in parallel, on min(apps, DefaultJobCount())
  // threads; duplicates are loaded once.
  std::vector<LcAppKind> prewarm;
};

class RhythmDaemon {
 public:
  explicit RhythmDaemon(DaemonOptions options);
  ~RhythmDaemon();

  RhythmDaemon(const RhythmDaemon&) = delete;
  RhythmDaemon& operator=(const RhythmDaemon&) = delete;

  // Prewarms thresholds, registers every route and starts the server.
  bool Start(std::string* error);
  // Graceful drain (delegates to HttpServer::Stop); idempotent.
  void Stop();

  int port() const { return server_.port(); }
  const HttpServer& server() const { return server_; }
  ThresholdStore& warm() { return warm_; }
  uint64_t audit_seq() const;

  // Daemon state to/from a JSON file: {"version":2,"audit_seq":…,
  // "endpoints":[{"endpoint":…,"served":…,"errors":…},…],"apps":[<threshold
  // record>,…]}. Saves go through WriteFileAtomic: a concurrent reader sees
  // the old snapshot or the new one, never a torn write, and concurrent
  // saves to one path all succeed. A restore reads the whole file first —
  // every record through ReadThresholdRecord, every counter as a uint64 —
  // and changes nothing unless all of it is valid, so a record with a stale
  // fingerprint or a wrong pod count fails the whole restore. Also used by
  // the --snapshot/--restore flags, so they work without HTTP round trips.
  bool SaveSnapshot(const std::string& path, std::string* error);
  bool RestoreSnapshot(const std::string& path, std::string* error);

  // The /metrics body: Prometheus text exposition.
  std::string MetricsText() const;

 private:
  struct EndpointStats {
    uint64_t served = 0;  // 2xx responses.
    uint64_t errors = 0;  // 4xx/5xx responses.
    // Streaming latency quantiles in milliseconds (P²; O(1) memory).
    P2Quantile p50{0.50};
    P2Quantile p95{0.95};
    P2Quantile p99{0.99};

    EndpointStats() = default;
  };

  // Wraps `handler` with latency/outcome accounting under `endpoint`.
  HttpHandler Instrument(const std::string& endpoint,
                         HttpHandler handler);

  // Loads options_.prewarm into warm_ concurrently; rethrows the failure
  // of the earliest listed app, if any.
  void Prewarm();

  HttpResponse HandleWhatIf(const HttpRequest& request);
  HttpResponse HandlePlacements(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);
  HttpResponse HandleRestore(const HttpRequest& request);

  std::string SnapshotJson() const;

  DaemonOptions options_;
  HttpServer server_;
  ThresholdStore warm_;

  mutable std::mutex mutex_;                    // guards stats_ + audit_seq_.
  std::map<std::string, EndpointStats> stats_;  // keyed by endpoint name.
  uint64_t audit_seq_ = 0;

  std::chrono::steady_clock::time_point started_;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_DAEMON_H_

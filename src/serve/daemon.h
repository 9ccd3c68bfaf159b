// RhythmDaemon: the long-lived serving process behind `rhythmd`. It wires
// the HTTP server to the what-if evaluator. Its threshold records are the
// process's one threshold cache (CachedAppThresholds,
// src/cluster/app_thresholds.h), which every query reads; the daemon keeps
// only what a serving instance adds:
//
//   * audit counters — a monotone query sequence number plus per-endpoint
//     served/error counts, persisted with the snapshot so a restored daemon
//     keeps numbering where it left off;
//   * latency histograms — per-endpoint P² p50/p95/p99 under /metrics.
//
// A snapshot carries the cache's characterized apps beside those counters,
// so a restored process skips the expensive one-time characterization.
//
// Endpoints: POST /v1/whatif, GET|POST /v1/placements, GET /metrics
// (Prometheus text), GET /healthz, POST /v1/snapshot, POST /v1/restore.
//
// Determinism: a served /v1/whatif body is byte-identical to what
// EvalWhatIfJson returns for the same body in batch mode (`rhythmd
// --oneshot`) — both paths make the same EvalWhatIfJson call, and nothing
// time- or instance-dependent leaks into response bodies (no Date headers,
// no timestamps; wall time appears only under /metrics).

#ifndef RHYTHM_SRC_SERVE_DAEMON_H_
#define RHYTHM_SRC_SERVE_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/p2_quantile.h"
#include "src/runner/runner.h"
#include "src/serve/server.h"
#include "src/serve/whatif.h"
#include "src/workload/app_catalog.h"

namespace rhythm {

struct WhatIfEvalOptions {
  RunnerOptions runner;
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
  // Apps characterized before the server opens its port, so first queries
  // don't pay for it: one CacheAppThresholds call, in which apps in the
  // disk cache load on the calling thread and the rest derive as one plan
  // whose probes share DefaultJobCount() shards (not runner.jobs, which
  // sizes per-query work). Duplicates are characterized once.
  std::vector<LcAppKind> prewarm;
};

class RhythmDaemon {
 public:
  // Registers every route; nothing listens before Start().
  explicit RhythmDaemon(DaemonOptions options);
  ~RhythmDaemon();

  RhythmDaemon(const RhythmDaemon&) = delete;
  RhythmDaemon& operator=(const RhythmDaemon&) = delete;

  // Prewarms thresholds (options.prewarm) and starts the server. A failed
  // characterization throws the earliest listed app's exception.
  bool Start(std::string* error);
  // Graceful drain (delegates to HttpServer::Stop); idempotent.
  void Stop();

  int port() const { return server_.port(); }
  const HttpServer& server() const { return server_; }
  uint64_t audit_seq() const;

  // Daemon state to/from a JSON file: {"version":2,"audit_seq":…,
  // "endpoints":[{"endpoint":…,"served":…,"errors":…},…],"apps":[<threshold
  // record>,…]}, where "apps" holds every app this process has
  // characterized (CharacterizedAppThresholds). Saves go through
  // WriteFileAtomic: a concurrent reader sees the old snapshot or the new
  // one, never a torn write, and concurrent saves to one path all succeed.
  // A restore reads the whole file first — every record through
  // ReadThresholdRecord, every counter as a uint64, every endpoint name
  // against the daemon's own routes — and changes nothing unless all of it
  // is valid, so a record with a stale fingerprint or a wrong pod count
  // fails the whole restore. Only then does it fill each record's app
  // through FillAppThresholds: an app this process has characterized
  // already keeps its live record, so a restore never changes a response
  // body. Also used by the --snapshot/--restore flags, so they work without
  // HTTP round trips.
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

  // Registers `handler` for (method, path) with latency/outcome accounting
  // under `endpoint`, which becomes one of the names a restore accepts.
  void AddRoute(const char* method, const char* path, const std::string& endpoint,
                HttpHandler handler);

  HttpResponse HandleWhatIf(const HttpRequest& request);
  HttpResponse HandlePlacements(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);
  HttpResponse HandleRestore(const HttpRequest& request);
  // The /v1/snapshot and /v1/restore answer for `path`.
  HttpResponse StateResponse(const std::string& path) const;

  std::string SnapshotJson() const;

  DaemonOptions options_;
  HttpServer server_;
  std::set<std::string> endpoints_;  // every AddRoute name; fixed after construction.

  mutable std::mutex mutex_;                    // guards stats_ + audit_seq_.
  std::map<std::string, EndpointStats> stats_;  // keyed by endpoint name.
  uint64_t audit_seq_ = 0;

  std::chrono::steady_clock::time_point started_;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_DAEMON_H_

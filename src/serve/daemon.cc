#include "src/serve/daemon.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/cluster/app_thresholds.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/place/cluster_engine.h"

namespace rhythm {
namespace {

// Schema problems are the client's fault; "json:"-prefixed messages are
// syntax errors (400), everything else a well-formed-but-invalid body (422).
int StatusForInvalidArgument(const std::string& what) {
  return what.rfind("json:", 0) == 0 ? 400 : 422;
}

JsonValue ParseBodyOrThrow(const std::string& body) {
  JsonValue doc;
  std::string error;
  // An empty body means "all defaults" for endpoints that allow it.
  if (body.empty()) {
    doc.type = JsonValue::Type::kObject;
    return doc;
  }
  if (!ParseJson(body, &doc, &error)) {
    throw std::invalid_argument(error);
  }
  return doc;
}

// The "path" a /v1/snapshot or /v1/restore body names, else `fallback`.
std::string SnapshotPathOf(const HttpRequest& request, const std::string& fallback,
                           const std::string& endpoint) {
  const std::string path = ParseBodyOrThrow(request.body).StringOr("path", fallback);
  if (path.empty()) {
    throw std::invalid_argument(endpoint + ": no \"path\" in body and no --snapshot default");
  }
  return path;
}

}  // namespace

// -- Shared evaluation path --------------------------------------------------

std::string EvalWhatIfJson(const std::string& body,
                           const WhatIfEvalOptions& options) {
  const JsonValue doc = ParseBodyOrThrow(body);
  WhatIfQuery query = ParseWhatIfQuery(doc);
  if (query.kind == WhatIfQuery::Kind::kTrial) {
    if (!options.audit_jsonl.empty()) {
      query.trial.obs.enabled = true;
      query.trial.obs.export_jsonl = options.audit_jsonl;
    }
    const RunSummary summary = Run(query.trial);
    return WhatIfResponseJson(query, summary);
  }
  if (!options.audit_jsonl.empty()) {
    query.cluster.obs.enabled = true;
    query.cluster.obs.export_jsonl = options.audit_jsonl;
  }
  const ClusterSummary summary = RunCluster(query.cluster, options.runner);
  return WhatIfResponseJson(query, summary);
}

// -- RhythmDaemon ------------------------------------------------------------

RhythmDaemon::RhythmDaemon(DaemonOptions options)
    : options_(std::move(options)), server_(options_.server) {
  AddRoute("GET", "/healthz", "healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"status\":\"ok\"}";
    return response;
  });
  AddRoute("GET", "/metrics", "metrics", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body = MetricsText();
    return response;
  });
  AddRoute("POST", "/v1/whatif", "whatif",
           [this](const HttpRequest& request) { return HandleWhatIf(request); });
  for (const char* method : {"GET", "POST"}) {
    AddRoute(method, "/v1/placements", "placements",
             [this](const HttpRequest& request) { return HandlePlacements(request); });
  }
  AddRoute("POST", "/v1/snapshot", "snapshot",
           [this](const HttpRequest& request) { return HandleSnapshot(request); });
  AddRoute("POST", "/v1/restore", "restore",
           [this](const HttpRequest& request) { return HandleRestore(request); });
}

RhythmDaemon::~RhythmDaemon() { Stop(); }

bool RhythmDaemon::Start(std::string* error) {
  CacheAppThresholds(options_.prewarm);
  started_ = std::chrono::steady_clock::now();
  return server_.Start(error);
}

void RhythmDaemon::Stop() { server_.Stop(); }

uint64_t RhythmDaemon::audit_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return audit_seq_;
}

void RhythmDaemon::AddRoute(const char* method, const char* path,
                            const std::string& endpoint, HttpHandler handler) {
  endpoints_.insert(endpoint);
  server_.Handle(method, path, [this, endpoint, handler = std::move(handler)](
                                   const HttpRequest& request) {
    const auto begin = std::chrono::steady_clock::now();
    HttpResponse response;
    try {
      response = handler(request);
    } catch (const std::invalid_argument& error) {
      response = HttpError(StatusForInvalidArgument(error.what()), error.what());
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - begin)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    EndpointStats& stats = stats_[endpoint];
    if (response.status < 400) {
      ++stats.served;
    } else {
      ++stats.errors;
    }
    stats.p50.Add(latency_ms);
    stats.p95.Add(latency_ms);
    stats.p99.Add(latency_ms);
    return response;
  });
}

HttpResponse RhythmDaemon::HandleWhatIf(const HttpRequest& request) {
  WhatIfEvalOptions eval;
  eval.runner = options_.runner;
  if (!options_.audit_dir.empty()) {
    uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seq = ++audit_seq_;
    }
    eval.audit_jsonl =
        options_.audit_dir + "/whatif-" + std::to_string(seq) + ".jsonl";
  }
  HttpResponse response;
  response.body = EvalWhatIfJson(request.body, eval);
  return response;
}

HttpResponse RhythmDaemon::HandlePlacements(const HttpRequest& request) {
  const JsonValue doc = ParseBodyOrThrow(request.body);
  HttpResponse response;
  response.body = PlacementsResponseJson(doc);
  return response;
}

HttpResponse RhythmDaemon::HandleSnapshot(const HttpRequest& request) {
  const std::string path = SnapshotPathOf(request, options_.snapshot_path, "snapshot");
  std::string error;
  if (!SaveSnapshot(path, &error)) {
    return HttpError(500, error);
  }
  return StateResponse(path);
}

HttpResponse RhythmDaemon::HandleRestore(const HttpRequest& request) {
  const std::string path = SnapshotPathOf(request, options_.snapshot_path, "restore");
  std::string error;
  if (!RestoreSnapshot(path, &error)) {
    return HttpError(422, error);
  }
  return StateResponse(path);
}

HttpResponse RhythmDaemon::StateResponse(const std::string& path) const {
  JsonWriter w;
  w.BeginObject()
      .Key("path").String(path)
      .Key("apps").Int(static_cast<int64_t>(CharacterizedAppThresholds().size()))
      .Key("audit_seq").UInt(audit_seq())
      .EndObject();
  HttpResponse response;
  response.body = std::move(w).str();
  return response;
}

std::string RhythmDaemon::SnapshotJson() const {
  JsonWriter w;
  w.BeginObject().Key("version").Int(2);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.Key("audit_seq").UInt(audit_seq_);
    w.Key("endpoints").BeginArray();
    for (const auto& [endpoint, stats] : stats_) {
      w.BeginObject()
          .Key("endpoint").String(endpoint)
          .Key("served").UInt(stats.served)
          .Key("errors").UInt(stats.errors)
          .EndObject();
    }
    w.EndArray();
  }
  w.Key("apps").BeginArray();
  for (const AppThresholds& record : CharacterizedAppThresholds()) {
    WriteThresholdRecord(record, &w);
  }
  w.EndArray().EndObject();
  return std::move(w).str();
}

bool RhythmDaemon::SaveSnapshot(const std::string& path, std::string* error) {
  if (!WriteFileAtomic(path, SnapshotJson() + "\n")) {
    if (error != nullptr) {
      *error = "snapshot: cannot write " + path;
    }
    return false;
  }
  return true;
}

bool RhythmDaemon::RestoreSnapshot(const std::string& path, std::string* error) {
  const auto reject = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "restore: " + path + ": " + why;
    }
    return false;
  };
  std::string text;
  if (!ReadFile(path, &text)) {
    return reject("cannot read the file");
  }
  JsonValue doc;
  std::string parse_error;
  if (!ParseJson(text, &doc, &parse_error)) {
    return reject(parse_error);
  }
  // A present member of `object` as a uint64 counter.
  const auto count = [](const JsonValue& object, const char* key, uint64_t* out) {
    const JsonValue* value = object.Find(key);
    return value != nullptr && value->GetInt(out);
  };
  uint64_t version = 0;
  if (!count(doc, "version", &version) || version != 2) {
    return reject("unsupported snapshot version");
  }

  // Validate everything before mutating any state: a bad snapshot must not
  // half-restore the daemon.
  std::vector<AppThresholds> apps;
  if (const JsonValue* records = doc.Find("apps")) {
    if (!records->is_array()) {
      return reject("\"apps\" must be an array");
    }
    for (const JsonValue& record : records->array) {
      AppThresholds app;
      std::string record_error;
      if (!ReadThresholdRecord(record, &app, &record_error)) {
        return reject(record_error);
      }
      apps.push_back(std::move(app));
    }
  }
  uint64_t restored_seq = 0;
  if (doc.Find("audit_seq") != nullptr && !count(doc, "audit_seq", &restored_seq)) {
    return reject("\"audit_seq\" must be an unsigned 64-bit integer");
  }
  struct Counts {
    std::string endpoint;
    uint64_t served = 0;
    uint64_t errors = 0;
  };
  std::vector<Counts> endpoints;
  if (const JsonValue* entries = doc.Find("endpoints")) {
    if (!entries->is_array()) {
      return reject("\"endpoints\" must be an array");
    }
    for (const JsonValue& entry : entries->array) {
      Counts counts;
      const JsonValue* name = entry.Find("endpoint");
      if (name == nullptr || !name->is_string() || !count(entry, "served", &counts.served) ||
          !count(entry, "errors", &counts.errors)) {
        return reject("each \"endpoints\" entry needs an \"endpoint\" name and "
                      "unsigned 64-bit \"served\" and \"errors\" counts");
      }
      // /metrics prints the name raw inside endpoint="…", so only the
      // daemon's own route names may come back.
      if (endpoints_.count(name->string) == 0) {
        return reject("an \"endpoints\" entry names no endpoint this daemon serves");
      }
      counts.endpoint = name->string;
      endpoints.push_back(std::move(counts));
    }
  }

  // Outside mutex_: a fill waits while a query derives the same app.
  for (AppThresholds& app : apps) {
    FillAppThresholds(std::move(app));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Never rewind the live sequence: restoring an old snapshot must not
  // make the daemon overwrite audit records it already wrote.
  if (restored_seq > audit_seq_) {
    audit_seq_ = restored_seq;
  }
  // Saturating: a count restored near 2^64 must not wrap to a small one.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const Counts& counts : endpoints) {
    EndpointStats& stats = stats_[counts.endpoint];
    stats.served += std::min(counts.served, kMax - stats.served);
    stats.errors += std::min(counts.errors, kMax - stats.errors);
  }
  return true;
}

std::string RhythmDaemon::MetricsText() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::string out;
  out += "# HELP rhythmd_uptime_seconds Seconds since the daemon started.\n";
  out += "# TYPE rhythmd_uptime_seconds gauge\n";
  out += "rhythmd_uptime_seconds " + ExactNum(uptime_s) + "\n";

  out += "# HELP rhythmd_connections_accepted_total Connections admitted.\n";
  out += "# TYPE rhythmd_connections_accepted_total counter\n";
  out += "rhythmd_connections_accepted_total " +
         std::to_string(server_.connections_accepted()) + "\n";
  out += "# HELP rhythmd_connections_rejected_total Connections shed with 503 "
         "at the admission limit.\n";
  out += "# TYPE rhythmd_connections_rejected_total counter\n";
  out += "rhythmd_connections_rejected_total " +
         std::to_string(server_.connections_rejected()) + "\n";
  out += "# HELP rhythmd_requests_served_total Requests routed to a handler.\n";
  out += "# TYPE rhythmd_requests_served_total counter\n";
  out += "rhythmd_requests_served_total " +
         std::to_string(server_.requests_served()) + "\n";

  std::lock_guard<std::mutex> lock(mutex_);
  out += "# HELP rhythmd_queries_served_total 2xx responses per endpoint.\n";
  out += "# TYPE rhythmd_queries_served_total counter\n";
  for (const auto& [endpoint, stats] : stats_) {
    out += "rhythmd_queries_served_total{endpoint=\"" + endpoint + "\"} " +
           std::to_string(stats.served) + "\n";
  }
  out += "# HELP rhythmd_queries_rejected_total 4xx/5xx responses per "
         "endpoint.\n";
  out += "# TYPE rhythmd_queries_rejected_total counter\n";
  for (const auto& [endpoint, stats] : stats_) {
    out += "rhythmd_queries_rejected_total{endpoint=\"" + endpoint + "\"} " +
           std::to_string(stats.errors) + "\n";
  }
  out += "# HELP rhythmd_request_latency_ms Handler latency quantiles "
         "(streaming P2 estimates).\n";
  out += "# TYPE rhythmd_request_latency_ms summary\n";
  for (const auto& [endpoint, stats] : stats_) {
    out += "rhythmd_request_latency_ms{endpoint=\"" + endpoint +
           "\",quantile=\"0.5\"} " + ExactNum(stats.p50.Value()) + "\n";
    out += "rhythmd_request_latency_ms{endpoint=\"" + endpoint +
           "\",quantile=\"0.95\"} " + ExactNum(stats.p95.Value()) + "\n";
    out += "rhythmd_request_latency_ms{endpoint=\"" + endpoint +
           "\",quantile=\"0.99\"} " + ExactNum(stats.p99.Value()) + "\n";
    out += "rhythmd_request_latency_ms_count{endpoint=\"" + endpoint + "\"} " +
           std::to_string(stats.p50.count()) + "\n";
  }
  out += "# HELP rhythmd_audit_seq Last audit sequence number issued.\n";
  out += "# TYPE rhythmd_audit_seq gauge\n";
  out += "rhythmd_audit_seq " + std::to_string(audit_seq_) + "\n";
  return out;
}

}  // namespace rhythm

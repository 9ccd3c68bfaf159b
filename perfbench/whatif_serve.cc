// whatif_serve: an in-process RhythmDaemon on loopback under an open loop.
// It is the workload where HTTP dispatch, JSON parse and render, admission
// and characterization run; the large cluster engine is bypassed (cluster
// what-ifs here run at 1 shard on at most 10 machines).
//
// One generator thread sends every request at its seeded due time, whatever
// the daemon is doing, and each request is timed from when it was due, so a
// stall shows in every request queued behind it. The daemon runs 2 workers,
// and a worker stays bound to one connection for that connection's life, so
// the generator opens exactly 2 keep-alive connections and pipelines each
// due request onto the one with fewer requests outstanding. At the chosen
// rate neither connection is ever idle near the server's 5 s idle timeout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/profiler.h"
#include "src/runner/trial.h"
#include "src/serve/daemon.h"
#include "src/serve/json.h"
#include "src/serve/whatif.h"

namespace perfbench {
namespace {

using namespace rhythm;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr double kRatePerS = 150.0;
// Request mix (shares of all requests; the rest are what-ifs).
constexpr double kHealthzShare = 0.40;
constexpr double kPlacementsShare = 0.25;
// Of the what-ifs: repeats of an earlier body, and cluster what-ifs.
constexpr double kRepeatShare = 1.0 / 3.0;
constexpr double kClusterShare = 0.12;
// Fresh trial bodies re-evaluated in batch mode after the run.
constexpr double kTrialCheckShare = 0.05;
constexpr double kLateMs = 1.0;  // a send this late counts as held.

enum class Kind { kTrial, kCluster, kHealthz, kPlacements };

struct Request {
  double due = 0.0;  // seconds after the timed phase starts.
  Kind kind = Kind::kTrial;
  int first = -1;    // index of the first request with this body.
  bool batch_check = false;
  std::string body;
  std::string wire;  // the full HTTP request.
};

bool IsWhatIf(Kind kind) { return kind == Kind::kTrial || kind == Kind::kCluster; }

std::string Wire(const std::string& method, const std::string& path,
                 const std::string& body) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  return wire + "\r\n" + body;
}

// Trial windows are sized so every trial costs the daemon about 3.5-13.5 ms:
// the apps simulate at very different speeds (cost grows with load x
// simulated seconds), and a mix whose cost spans 30x turns queueing behind
// the slowest bodies into run-to-run noise, while queries much shorter than
// that are dominated by thread wake-up delays on a shared host. Per app: ms
// of host time per simulated second at full load, as measured on a 4-vCPU
// Xeon; it shapes the inputs only.
struct TrialShape {
  LcAppKind app;
  double ms_per_sim_s;
};

const TrialShape kTrialShapes[] = {
    {LcAppKind::kEcommerce, 1.65}, {LcAppKind::kRedis, 3.8}, {LcAppKind::kSolr, 0.26},
    {LcAppKind::kElasticsearch, 0.48}, {LcAppKind::kElgg, 0.15}, {LcAppKind::kSnms, 1.25},
};

std::string TrialBody(InputRng& rng) {
  static const BeJobKind kBes[] = {BeJobKind::kWordcount,     BeJobKind::kStreamDramBig,
                                   BeJobKind::kCpuStress,     BeJobKind::kLstm,
                                   BeJobKind::kImageClassify, BeJobKind::kStreamLlcSmall};
  const TrialShape& shape = kTrialShapes[rng.Below(6)];
  const BeJobKind be = kBes[rng.Below(6)];
  const double load = 0.20 + 0.05 * static_cast<double>(rng.Below(12));
  const double target_ms = 3.5 + 1.0 * static_cast<double>(rng.Below(11));
  // A diurnal profile replaces the constant load; size by its mean.
  const double extra = rng.Uniform01();
  const bool diurnal = extra < 0.15;
  const double max_load = 0.50 + 0.05 * static_cast<double>(rng.Below(7));
  const double mean_load = diurnal ? (0.2 + max_load) / 2.0 : load;
  const int warmup = 1;
  const double measure = std::max(
      1.0, std::round((target_ms / (shape.ms_per_sim_s * mean_load) - warmup) * 2.0) / 2.0);
  char buffer[640];
  int n = std::snprintf(buffer, sizeof(buffer),
                        "{\"app\":\"%s\",\"be\":\"%s\",\"seed\":%llu,\"load\":%.2f,"
                        "\"warmup_s\":%d,\"measure_s\":%g",
                        LcAppKindName(shape.app), BeJobKindName(be),
                        static_cast<unsigned long long>(1 + rng.Below(1000000)), load,
                        warmup, measure);
  std::string body(buffer, static_cast<size_t>(n));
  if (diurnal) {
    n = std::snprintf(buffer, sizeof(buffer),
                      ",\"load_profile\":{\"kind\":\"diurnal\",\"duration_s\":%g,"
                      "\"min_load\":0.2,\"max_load\":%.2f}",
                      warmup + measure, max_load);
    body.append(buffer, static_cast<size_t>(n));
  } else if (extra < 0.25) {
    n = std::snprintf(buffer, sizeof(buffer),
                      ",\"faults\":[{\"kind\":\"LoadSpike\",\"start_s\":%d.5,"
                      "\"duration_s\":1,\"magnitude\":%.2f}]",
                      warmup, 0.10 + 0.05 * static_cast<double>(rng.Below(5)));
    body.append(buffer, static_cast<size_t>(n));
  } else if (extra < 0.30) {
    body += ",\"controller\":\"Heracles\"";
  }
  return body + "}";
}

std::string ClusterBody(InputRng& rng) {
  // Larger clusters or more epochs cost 30-60 ms, a tail of their own.
  const int machines = 8 + 2 * static_cast<int>(rng.Below(2));
  char buffer[512];
  int n = std::snprintf(buffer, sizeof(buffer),
                        "{\"kind\":\"cluster\",\"machines\":%d,\"synthetic\":true,"
                        "\"seed\":%llu,\"warmup_s\":1,\"measure_s\":%g,\"epochs\":1",
                        machines, static_cast<unsigned long long>(1 + rng.Below(1000000)),
                        1.0 + 0.5 * static_cast<double>(rng.Below(3)));
  std::string body(buffer, static_cast<size_t>(n));
  if (rng.Chance(0.3)) {
    n = std::snprintf(buffer, sizeof(buffer),
                      ",\"supervisor\":true,\"faults\":[{\"kind\":\"MachineFailure\","
                      "\"machine\":%d,\"start_s\":1.5}]",
                      static_cast<int>(rng.Below(static_cast<uint64_t>(machines))));
    body.append(buffer, static_cast<size_t>(n));
  }
  return body + "}";
}

std::string PlacementsBody(InputRng& rng) {
  return "{\"machines\":" + std::to_string(32 + 16 * rng.Below(3)) +
         ",\"synthetic\":true,\"seed\":" + std::to_string(1 + rng.Below(1000000)) + "}";
}

// The whole schedule, generated from the seed before set-up starts.
std::vector<Request> MakeSchedule(uint64_t seed, double seconds) {
  InputRng rng(seed ^ 0x7768617469660aULL);
  std::vector<Request> schedule;
  std::vector<int> fresh_whatifs;
  for (double t = rng.Exponential(1.0 / kRatePerS); t < seconds;
       t += rng.Exponential(1.0 / kRatePerS)) {
    Request request;
    request.due = t;
    request.first = static_cast<int>(schedule.size());
    const double pick = rng.Uniform01();
    if (pick < kHealthzShare) {
      request.kind = Kind::kHealthz;
      request.wire = Wire("GET", "/healthz", "");
    } else if (pick < kHealthzShare + kPlacementsShare) {
      request.kind = Kind::kPlacements;
      request.body = PlacementsBody(rng);
      request.wire = Wire("POST", "/v1/placements", request.body);
    } else if (!fresh_whatifs.empty() && rng.Chance(kRepeatShare)) {
      const Request& original =
          schedule[static_cast<size_t>(fresh_whatifs[rng.Below(fresh_whatifs.size())])];
      request.kind = original.kind;
      request.first = original.first;
      request.body = original.body;
      request.wire = original.wire;
    } else {
      request.kind = rng.Chance(kClusterShare) ? Kind::kCluster : Kind::kTrial;
      request.body = request.kind == Kind::kCluster ? ClusterBody(rng) : TrialBody(rng);
      request.wire = Wire("POST", "/v1/whatif", request.body);
      request.batch_check = request.kind == Kind::kCluster || rng.Chance(kTrialCheckShare);
      fresh_whatifs.push_back(request.first);
    }
    schedule.push_back(std::move(request));
  }
  return schedule;
}

// -- Loopback HTTP client ------------------------------------------------------

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Incremental parser for the daemon's responses (always Content-Length
// framed).
class ResponseReader {
 public:
  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  bool Next(int* status, std::string* body) {
    const size_t head_end = buffer_.find("\r\n\r\n", pos_);
    if (head_end == std::string::npos) {
      return false;
    }
    const std::string head = buffer_.substr(pos_, head_end - pos_);
    size_t length = 0;
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    const size_t field = lower.find("\r\ncontent-length:");
    if (field != std::string::npos) {
      length = std::strtoul(lower.c_str() + field + 17, nullptr, 10);
    }
    const size_t body_begin = head_end + 4;
    if (buffer_.size() < body_begin + length) {
      return false;
    }
    const size_t space = head.find(' ');
    *status = space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
    body->assign(buffer_, body_begin, length);
    pos_ = body_begin + length;
    if (pos_ > (1u << 16)) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    return true;
  }

 private:
  std::string buffer_;
  size_t pos_ = 0;
};

// Size and FNV-1a hash of a body: kept instead of the 16 KB placements bodies,
// so the generator's own memory stays small next to the daemon's.
std::string Fingerprint(const std::string& body) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : body) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  return std::to_string(body.size()) + ":" + std::to_string(hash);
}

// One request/response on a fresh connection (set-up and scrapes).
bool Exchange(int port, const std::string& wire, int* status, std::string* body) {
  const int fd = Connect(port);
  if (fd < 0) {
    return false;
  }
  bool ok = SendAll(fd, wire);
  ResponseReader reader;
  char buffer[16384];
  while (ok && !reader.Next(status, body)) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      ok = false;
      break;
    }
    reader.Feed(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return ok;
}

// -- Open-loop generator -------------------------------------------------------

struct Outcome {
  double send_start = 0.0;
  double send_end = 0.0;
  double done = 0.0;
  int status = 0;
  bool answered = false;
  std::string body;
};

struct Connection {
  int fd = -1;
  std::mutex mutex;
  std::deque<size_t> outstanding;  // request indices, in send order.
  bool broken = false;
};

struct Pass {
  std::vector<Outcome> outcomes;
  double t0 = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t rejected = 0;
  double handler_p50_ms = 0.0;
  double handler_p99_ms = 0.0;
};

void ReadLoop(Connection* conn, const std::vector<Request>* schedule,
              std::vector<Outcome>* outcomes, const std::atomic<bool>* all_sent,
              double deadline) {
  ResponseReader reader;
  char buffer[65536];
  while (true) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (all_sent->load() && conn->outstanding.empty()) {
        return;
      }
    }
    if (NowS() > deadline) {
      return;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) {
      continue;
    }
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->broken = true;
      return;
    }
    reader.Feed(buffer, static_cast<size_t>(n));
    int status = 0;
    std::string body;
    while (reader.Next(&status, &body)) {
      const double now = NowS();
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->outstanding.empty()) {
          conn->broken = true;  // a response nobody asked for.
          return;
        }
        index = conn->outstanding.front();
        conn->outstanding.pop_front();
      }
      Outcome& outcome = (*outcomes)[index];
      outcome.done = now;
      outcome.status = status;
      outcome.answered = true;
      outcome.body =
          (*schedule)[index].kind == Kind::kPlacements ? Fingerprint(body) : std::move(body);
      body.clear();
    }
  }
}

DaemonOptions MakeDaemonOptions() {
  DaemonOptions options;
  options.server.host = "127.0.0.1";
  options.server.port = 0;
  options.server.threads = kWorkers;
  options.runner.jobs = 1;
  options.runner.shards = 1;
  options.prewarm = AllLcAppKinds();
  return options;
}

double ScrapeQuantile(const std::string& metrics, const std::string& quantile) {
  const std::string key =
      "rhythmd_request_latency_ms{endpoint=\"whatif\",quantile=\"" + quantile + "\"} ";
  const size_t at = metrics.find(key);
  return at == std::string::npos ? 0.0 : std::strtod(metrics.c_str() + at + key.size(), nullptr);
}

// One timed phase against a fresh daemon (thresholds already in the
// process-wide cache, so its prewarm only copies them).
Pass RunPass(const std::vector<Request>& schedule, double seconds, Tracer* tracer) {
  Pass pass;
  RhythmDaemon daemon(MakeDaemonOptions());
  std::string error;
  if (!daemon.Start(&error)) {
    throw std::runtime_error("daemon start: " + error);
  }
  pass.outcomes.resize(schedule.size());
  Connection conns[kConnections];
  for (Connection& conn : conns) {
    conn.fd = Connect(daemon.port());
    if (conn.fd < 0) {
      throw std::runtime_error("cannot connect to the daemon");
    }
  }
  std::atomic<bool> all_sent{false};
  ResetPeakRss();
  const double cpu0 = ProcessCpuS();
  pass.t0 = NowS() + 0.05;
  const double deadline = pass.t0 + seconds + 30.0;
  std::vector<std::thread> readers;
  for (Connection& conn : conns) {
    readers.emplace_back(ReadLoop, &conn, &schedule, &pass.outcomes, &all_sent, deadline);
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due = pass.t0 + schedule[i].due;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(std::chrono::duration<double>(due))));
    Outcome& outcome = pass.outcomes[i];
    outcome.send_start = NowS();
    size_t pick = 0;
    size_t fewest = std::numeric_limits<size_t>::max();
    for (size_t c = 0; c < kConnections; ++c) {
      std::lock_guard<std::mutex> lock(conns[c].mutex);
      const size_t depth = conns[c].outstanding.size();
      if (!conns[c].broken && (depth < fewest || (depth == fewest && i % 2 == c))) {
        fewest = depth;
        pick = c;
      }
    }
    {
      std::lock_guard<std::mutex> lock(conns[pick].mutex);
      conns[pick].outstanding.push_back(i);
    }
    SendAll(conns[pick].fd, schedule[i].wire);
    outcome.send_end = NowS();
  }
  all_sent.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  pass.cpu_s = ProcessCpuS() - cpu0;
  pass.peak_rss_mb = PeakRssMb();
  double last = pass.t0;
  for (const Outcome& outcome : pass.outcomes) {
    last = std::max(last, outcome.done);
  }
  pass.run_s = last - (pass.t0 + (schedule.empty() ? 0.0 : schedule.front().due));
  for (Connection& conn : conns) {
    ::close(conn.fd);
  }
  int status = 0;
  std::string metrics;
  if (Exchange(daemon.port(), Wire("GET", "/metrics", ""), &status, &metrics) &&
      status == 200) {
    pass.handler_p50_ms = ScrapeQuantile(metrics, "0.5");
    pass.handler_p99_ms = ScrapeQuantile(metrics, "0.99");
  }
  pass.rejected = daemon.server().connections_rejected();
  daemon.Stop();
  if (tracer != nullptr) {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& outcome = pass.outcomes[i];
      const double due = pass.t0 + schedule[i].due;
      const int64_t root = tracer->Add("loadgen.request", due,
                                       outcome.answered ? outcome.done : outcome.send_end, -1,
                                       static_cast<int64_t>(i));
      tracer->Add("loadgen.send", outcome.send_start, outcome.send_end, root,
                  static_cast<int64_t>(i));
    }
  }
  return pass;
}

// Offline service time of one what-if body through the public parse,
// Trial/RunCluster and render functions.
struct Offline {
  double parse_s = 0.0;
  double eval_s = 0.0;
  double render_s = 0.0;
  std::string response;
  double build_s = 0.0;
  double start_s = 0.0;
  double advance_s = 0.0;
  uint64_t events = 0;
  uint64_t requests = 0;
  bool trial = false;
};

Offline EvaluateOffline(const std::string& body, Tracer* tracer, int64_t id) {
  Offline off;
  const double a = NowS();
  JsonValue doc;
  std::string error;
  if (!ParseJson(body, &doc, &error)) {
    throw std::runtime_error("offline parse: " + error);
  }
  const WhatIfQuery query = ParseWhatIfQuery(doc);
  const double b = NowS();
  double built = b;
  double started = b;
  double advanced = b;
  if (query.kind == WhatIfQuery::Kind::kTrial) {
    off.trial = true;
    Trial trial(query.trial);
    built = NowS();
    trial.Start();
    started = NowS();
    trial.AdvanceTo(trial.end_time());
    advanced = NowS();
    const RunSummary summary = trial.Finish();
    off.events = trial.deployment().sim().executed_events();
    off.requests = trial.deployment().service().completed_requests();
    const double c = NowS();
    off.response = WhatIfResponseJson(query, summary);
    off.render_s = NowS() - c;
    off.eval_s = c - b;
  } else {
    RunnerOptions pinned;
    pinned.jobs = 1;
    pinned.shards = 1;
    const ClusterSummary summary = RunCluster(query.cluster, pinned);
    const double c = NowS();
    off.response = WhatIfResponseJson(query, summary);
    off.render_s = NowS() - c;
    off.eval_s = c - b;
  }
  off.parse_s = b - a;
  off.build_s = built - b;
  off.start_s = started - built;
  off.advance_s = advanced - started;
  const double c = b + off.eval_s;
  const int64_t root = tracer->Add("serve.offline", a, c + off.render_s, -1, id);
  tracer->Add("serve.parse", a, b, root, id);
  const int64_t eval = tracer->Add("serve.eval", b, c, root, id);
  if (off.trial) {
    tracer->Add("runner.trial_build", b, built, eval, id);
    tracer->Add("runner.trial_start", built, started, eval, id);
    tracer->Add("runner.trial_advance", started, advanced, eval, id);
  }
  tracer->Add("serve.render", c, c + off.render_s, root, id);
  return off;
}

std::string Slug(LcAppKind app) {
  std::string slug;
  for (const char* p = LcAppKindName(app); *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
    }
  }
  return slug;
}

std::vector<double> Pick(const std::vector<double>& values, const std::vector<bool>& mask) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (mask[i]) {
      out.push_back(values[i]);
    }
  }
  return out;
}

}  // namespace

Result RunWhatIfServe(const Options& options, Tracer* tracer) {
  Result result;
  const std::vector<Request> schedule = MakeSchedule(options.seed, options.seconds);
  // Cold start: no threshold disk cache, so set-up characterizes every app.
  ::unsetenv("RHYTHM_THRESHOLD_CACHE");
  for (LcAppKind app : AllLcAppKinds()) {
    if (!ThresholdDiskCachePath(app).empty()) {
      throw std::runtime_error("threshold disk cache is not disabled");
    }
  }
  result.Config("daemon_workers", std::to_string(kWorkers));
  result.Config("connections", std::to_string(kConnections));
  result.Config("rate_per_s", Num(kRatePerS));
  result.Config("runner", "jobs=1 shards=1");
  result.Config("cache_mode", "threshold disk cache off (cold characterization)");

  // -- Set-up: characterize the six apps, bind, answer one /healthz -----------
  const double setup_begin = NowS();
  if (tracer != nullptr) {
    // Per app: the solo profile alone, then the whole characterization
    // (which profiles again inside); the daemon's prewarm then hits the
    // process-wide cache.
    for (LcAppKind app : AllLcAppKinds()) {
      const double a = NowS();
      const ProfileResult profile = ProfileSolo(app, DefaultProfileLevels(), ProfileOptions{});
      const double b = NowS();
      CachedAppThresholds(app);
      const double c = NowS();
      tracer->Add("cluster.profile", a, b, -1, static_cast<int64_t>(app));
      tracer->Add("cluster.derive", b, c, -1, static_cast<int64_t>(app));
      result.Add("cluster.profile_s." + Slug(app), b - a, "s");
      result.Add("cluster.derive_s." + Slug(app), c - b, "s");
      result.Add("trace.requests_profiled." + Slug(app),
                 static_cast<double>(profile.requests_profiled), "count");
    }
  }
  double setup_s = 0.0;
  double setup_rss_mb = 0.0;
  {
    RhythmDaemon daemon(MakeDaemonOptions());
    std::string error;
    if (!daemon.Start(&error)) {
      throw std::runtime_error("daemon start: " + error);
    }
    int status = 0;
    std::string body;
    const bool ok = Exchange(daemon.port(), Wire("GET", "/healthz", ""), &status, &body);
    setup_s = NowS() - setup_begin;
    setup_rss_mb = PeakRssMb();
    result.Check(ok && status == 200, "set-up /healthz");
    daemon.Stop();
  }

  // -- Timed phase(s) ----------------------------------------------------------
  const Pass plain = RunPass(schedule, options.seconds, nullptr);
  Pass traced;
  if (tracer != nullptr) {
    traced = RunPass(schedule, options.seconds, tracer);
  }
  const Pass& main = tracer != nullptr ? traced : plain;

  // -- Checks ------------------------------------------------------------------
  const std::string healthz_body = "{\"status\":\"ok\"}";
  std::vector<bool> ok(schedule.size(), true);
  const Pass* passes[] = {&plain, &traced};
  for (const Pass* pass : passes) {
    if (pass->outcomes.empty()) {
      continue;
    }
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& outcome = pass->outcomes[i];
      const Request& request = schedule[i];
      bool good = outcome.answered && outcome.status == 200;
      if (good && request.kind == Kind::kHealthz) {
        good = outcome.body == healthz_body;
      }
      if (good && static_cast<size_t>(request.first) != i) {
        good = outcome.body == pass->outcomes[static_cast<size_t>(request.first)].body;
      }
      ok[i] = ok[i] && good;
    }
  }
  // After the timed phase, so nothing computed here can warm it: distinct
  // cluster bodies and a sample of trial bodies against the batch path, and
  // every placements body against the placement function.
  WhatIfEvalOptions batch;
  batch.runner.jobs = 1;
  batch.runner.shards = 1;
  size_t batch_checked = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& request = schedule[i];
    if (static_cast<size_t>(request.first) != i || !main.outcomes[i].answered) {
      continue;
    }
    std::string expected;
    if (request.batch_check) {
      expected = EvalWhatIfJson(request.body, batch);
    } else if (request.kind == Kind::kPlacements) {
      JsonValue doc;
      std::string error;
      ParseJson(request.body, &doc, &error);
      expected = Fingerprint(PlacementsResponseJson(doc));
    } else {
      continue;
    }
    ++batch_checked;
    if (main.outcomes[i].body != expected) {
      for (size_t j = i; j < schedule.size(); ++j) {
        if (static_cast<size_t>(schedule[j].first) == i) {
          ok[j] = false;
        }
      }
    }
  }
  // Latency from due time; a failed request counts as infinitely slow.
  const auto latencies = [&](const Pass& pass) {
    std::vector<double> ms(schedule.size(), std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (ok[i]) {
        ms[i] = (pass.outcomes[i].done - (pass.t0 + schedule[i].due)) * 1e3;
      }
    }
    return ms;
  };
  const std::vector<double> latency_ms = latencies(main);
  const std::vector<double> untraced_ms = latencies(plain);
  std::vector<bool> fresh(schedule.size()), repeat(schedule.size()), probe(schedule.size());
  size_t whatifs = 0;
  size_t repeats = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& request = schedule[i];
    result.Check(ok[i], "request " + std::to_string(i) + " (" + request.wire.substr(0, 20) +
                            "...) status " + std::to_string(main.outcomes[i].status));
    const bool is_whatif = IsWhatIf(request.kind);
    fresh[i] = is_whatif && static_cast<size_t>(request.first) == i;
    repeat[i] = is_whatif && !fresh[i];
    probe[i] = !is_whatif;
    whatifs += is_whatif ? 1 : 0;
    repeats += repeat[i] ? 1 : 0;
  }
  const std::vector<double> fresh_ms = Pick(untraced_ms, fresh);
  const std::vector<double> repeat_ms = Pick(untraced_ms, repeat);
  const std::vector<double> probe_ms = Pick(untraced_ms, probe);
  result.Note("requests: " + std::to_string(schedule.size()) + " (" + std::to_string(whatifs) +
              " what-ifs, " + std::to_string(repeats) + " repeats, " +
              std::to_string(probe_ms.size()) + " probes); batch-checked bodies: " +
              std::to_string(batch_checked));
  result.Note("samples: fresh " + std::to_string(fresh_ms.size()) + " (" +
              std::to_string(SamplesBeyond(fresh_ms, 0.99)) + " beyond p99), repeat " +
              std::to_string(repeat_ms.size()) + " (" +
              std::to_string(SamplesBeyond(repeat_ms, 0.5)) + " beyond p50), probe " +
              std::to_string(probe_ms.size()) + " (" +
              std::to_string(SamplesBeyond(probe_ms, 0.99)) + " beyond p99)");

  if (tracer == nullptr) {
    result.Add("setup_s", setup_s, "s");
    result.Add("setup_rss_mb", setup_rss_mb, "MB");
    result.Add("run_s", plain.run_s, "s");
    result.Add("cpu_s", plain.cpu_s, "CPU-s");
    result.Add("peak_rss_mb", plain.peak_rss_mb, "MB");
    result.Add("fresh_p50_ms", Quantile(fresh_ms, 0.50), "ms");
    result.Add("repeat_p50_ms", Quantile(repeat_ms, 0.50), "ms");
    result.Note("tails (per-layer metrics; too noisy on a shared box for a bound): "
                "fresh_p99_ms " + Num(Quantile(fresh_ms, 0.99)) + " ms, probe_p99_ms " +
                Num(Quantile(probe_ms, 0.99)) + " ms");
    return result;
  }

  // Traced: offline service time of every distinct what-if body, checked
  // against what the daemon served.
  std::vector<double> parse_us, render_us, eval_ms, build_ms, start_ms;
  std::vector<double> service_ms(schedule.size(), 0.0);
  double advance_s = 0.0;
  double events = 0.0;
  double requests = 0.0;
  double trials = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!fresh[i]) {
      continue;
    }
    const Offline off = EvaluateOffline(schedule[i].body, tracer, static_cast<int64_t>(i));
    result.Check(off.response == traced.outcomes[i].body,
                 "offline body " + std::to_string(i) + " differs from the served body");
    parse_us.push_back(off.parse_s * 1e6);
    render_us.push_back(off.render_s * 1e6);
    eval_ms.push_back(off.eval_s * 1e3);
    service_ms[i] = (off.parse_s + off.eval_s + off.render_s) * 1e3;
    if (off.trial) {
      build_ms.push_back(off.build_s * 1e3);
      start_ms.push_back(off.start_s * 1e3);
      advance_s += off.advance_s;
      events += static_cast<double>(off.events);
      requests += static_cast<double>(off.requests);
      trials += 1.0;
    }
  }
  std::vector<double> wait_ms;
  std::vector<double> late_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (IsWhatIf(schedule[i].kind)) {
      wait_ms.push_back(latency_ms[i] - service_ms[static_cast<size_t>(schedule[i].first)]);
    }
    late_ms.push_back((traced.outcomes[i].send_start - (traced.t0 + schedule[i].due)) * 1e3);
  }
  result.Add("fresh_p99_ms", Quantile(fresh_ms, 0.99), "ms");
  result.Add("probe_p99_ms", Quantile(probe_ms, 0.99), "ms");
  result.Add("runner.trial_build_ms", Median(build_ms), "ms");
  result.Add("runner.trial_start_ms", Median(start_ms), "ms");
  result.Add("runner.ns_per_request", requests > 0 ? advance_s * 1e9 / requests : 0.0, "ns");
  result.Add("sim.events_per_request", requests > 0 ? events / requests : 0.0, "count");
  result.Add("workload.requests", trials > 0 ? requests / trials : 0.0, "count");
  result.Add("serve.parse_us", Median(parse_us), "us");
  result.Add("serve.render_us", Median(render_us), "us");
  result.Add("serve.eval_ms_p50", Quantile(eval_ms, 0.50), "ms");
  result.Add("serve.eval_ms_p99", Quantile(eval_ms, 0.99), "ms");
  result.Add("serve.wait_ms_p50", Quantile(wait_ms, 0.50), "ms");
  result.Add("serve.wait_ms_p99", Quantile(wait_ms, 0.99), "ms");
  result.Add("serve.handler_ms_p50", traced.handler_p50_ms, "ms");
  result.Add("serve.handler_ms_p99", traced.handler_p99_ms, "ms");
  result.Add("serve.repeat_share",
             whatifs > 0 ? static_cast<double>(repeats) / static_cast<double>(whatifs) : 0.0,
             "ratio");
  result.Add("loadgen.late_ms_p99", Quantile(late_ms, 0.99), "ms");
  result.Add("loadgen.held",
             static_cast<double>(std::count_if(late_ms.begin(), late_ms.end(),
                                               [](double late) { return late > kLateMs; })),
             "count");
  result.Add("bench.trace_overhead_s", traced.run_s - plain.run_s, "s");
  // Every admission 503 also fails its request, so in an accepted run this
  // is 0; it is printed, not reported as a metric.
  result.Note("serve.connections_rejected " + std::to_string(traced.rejected) +
              " (admission 503s)");
  return result;
}

}  // namespace perfbench

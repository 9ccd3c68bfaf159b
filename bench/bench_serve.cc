// Serving-path benchmark: a live RhythmDaemon on the loopback hammered by
// concurrent keep-alive clients, measuring end-to-end request latency
// (socket write -> full response read) and throughput per endpoint. Three
// sweeps: /healthz (pure server overhead), POST /v1/whatif with an identical
// trial query from every client (the serving tentpole's contract: every
// response byte-identical to EvalWhatIfJson in batch mode), and a cluster
// what-if plus GET /v1/placements round.
//
// The identity checks are load-bearing, not informational: any served body
// that differs from the batch evaluation of the same JSON — across clients,
// repeats, or endpoints — fails the bench with a nonzero exit. This is the
// same guarantee the serve-smoke CI job checks with `cmp` against
// `rhythmd --oneshot`, here exercised under real concurrency.
//
// Latency quantiles are exact (sorted-vector), not P² — the daemon's own
// /metrics uses P², and the bench should not inherit its approximation.
//
// Usage: bench_serve [output.json]   (default: BENCH_serve.json in cwd)
// RHYTHM_FAST=1 shrinks the sweep to CI scale.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/daemon.h"
#include "tests/serve/http_client.h"

using namespace rhythm_bench;
using rhythm::testing::TestClient;
using rhythm::testing::TestResponse;

namespace {

struct SweepResult {
  std::vector<double> latencies_ms;  // one entry per request, merged.
  double wall_s = 0.0;
  uint64_t requests = 0;
  uint64_t transport_failures = 0;
  uint64_t body_mismatches = 0;
};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t n = sorted.size();
  size_t index = static_cast<size_t>(q * static_cast<double>(n));
  if (index >= n) {
    index = n - 1;
  }
  return sorted[index];
}

// `clients` keep-alive connections each issue `per_client` identical
// requests; every body is checked against `expected` (skip when empty, e.g.
// /healthz where the handler is trivial but still deterministic).
SweepResult RunSweep(int port, int clients, int per_client,
                     const std::string& method, const std::string& path,
                     const std::string& body, const std::string& expected) {
  SweepResult result;
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<uint64_t> transport_failures{0};
  std::atomic<uint64_t> body_mismatches{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(port);
      if (!client.connected()) {
        transport_failures += static_cast<uint64_t>(per_client);
        return;
      }
      for (int i = 0; i < per_client; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const TestResponse response = client.Request(method, path, body);
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok || response.status != 200) {
          ++transport_failures;
          continue;
        }
        latencies[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        if (!expected.empty() && response.body != expected) {
          ++body_mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& per_thread : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(), per_thread.begin(),
                               per_thread.end());
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  result.requests = result.latencies_ms.size();
  result.transport_failures = transport_failures.load();
  result.body_mismatches = body_mismatches.load();
  return result;
}

void WriteSweep(JsonWriter& json, const std::string& key, int clients,
                const SweepResult& sweep) {
  json.Key(key).BeginObject()
      .Key("clients").Int(clients)
      .Key("requests").UInt(sweep.requests)
      .Key("transport_failures").UInt(sweep.transport_failures)
      .Key("body_mismatches").UInt(sweep.body_mismatches)
      .Key("identical_bodies").Int(sweep.body_mismatches == 0 ? 1 : 0)
      .Key("wall_s").Number(sweep.wall_s)
      .Key("throughput_qps")
      .Number(sweep.wall_s > 0.0
                  ? static_cast<double>(sweep.requests) / sweep.wall_s
                  : 0.0)
      .Key("p50_ms").Number(Percentile(sweep.latencies_ms, 0.50))
      .Key("p95_ms").Number(Percentile(sweep.latencies_ms, 0.95))
      .Key("p99_ms").Number(Percentile(sweep.latencies_ms, 0.99))
      .Key("max_ms").Number(sweep.latencies_ms.empty()
                                ? 0.0
                                : sweep.latencies_ms.back())
      .EndObject();
}

bool SweepClean(const char* name, const SweepResult& sweep) {
  if (sweep.transport_failures > 0) {
    std::fprintf(stderr, "bench_serve: %s: %llu transport failures\n", name,
                 static_cast<unsigned long long>(sweep.transport_failures));
    return false;
  }
  if (sweep.body_mismatches > 0) {
    std::fprintf(stderr,
                 "bench_serve: %s: %llu bodies differ from the batch "
                 "evaluation — served/batch determinism is broken\n",
                 name,
                 static_cast<unsigned long long>(sweep.body_mismatches));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const bool fast = FastMode();

  const int clients = fast ? 4 : 8;
  const int healthz_per_client = fast ? 100 : 400;
  const int whatif_per_client = fast ? 3 : 8;
  const int cluster_per_client = fast ? 1 : 2;
  const int placements_per_client = fast ? 4 : 16;

  // A small trial and a small synthetic cluster: the bench measures the
  // serving layer, not the simulator, so the queries are deliberately cheap
  // — yet real enough that each /v1/whatif runs the full pipeline.
  const std::string trial_body =
      "{\"app\":\"Redis\",\"be\":\"wordcount\",\"seed\":7,"
      "\"warmup_s\":2,\"measure_s\":8}";
  const std::string cluster_body =
      "{\"kind\":\"cluster\",\"policy\":\"rhythm-aware\",\"machines\":8,"
      "\"epochs\":1,\"warmup_s\":2,\"measure_s\":8,\"synthetic\":true,"
      "\"seed\":5}";

  rhythm::DaemonOptions options;
  options.server.port = 0;  // ephemeral: the bench never collides.
  options.server.threads = 4;
  options.server.queue_depth = 256;
  options.prewarm = {rhythm::LcAppKind::kRedis};

  rhythm::RhythmDaemon daemon(options);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "bench_serve: start failed: %s\n", error.c_str());
    return 1;
  }
  const int port = daemon.port();

  // Batch-mode references (also warms every code path once, so the sweeps
  // below time steady-state serving, not first-touch characterization).
  rhythm::WhatIfEvalOptions eval;
  const std::string trial_expected = rhythm::EvalWhatIfJson(trial_body, eval);
  const std::string cluster_expected =
      rhythm::EvalWhatIfJson(cluster_body, eval);
  const TestResponse placements_probe =
      rhythm::testing::Fetch(port, "GET", "/v1/placements", "");
  if (!placements_probe.ok || placements_probe.status != 200) {
    std::fprintf(stderr, "bench_serve: placements probe failed (%d)\n",
                 placements_probe.status);
    return 1;
  }

  std::printf("bench_serve: %d clients on 127.0.0.1:%d (%s mode)\n", clients,
              port, fast ? "fast" : "full");

  const SweepResult healthz =
      RunSweep(port, clients, healthz_per_client, "GET", "/healthz", "",
               "{\"status\":\"ok\"}");
  std::printf("  healthz:    %6llu req  p50 %8.3f ms  p99 %8.3f ms\n",
              static_cast<unsigned long long>(healthz.requests),
              Percentile(healthz.latencies_ms, 0.50),
              Percentile(healthz.latencies_ms, 0.99));

  const SweepResult whatif =
      RunSweep(port, clients, whatif_per_client, "POST", "/v1/whatif",
               trial_body, trial_expected);
  std::printf("  whatif:     %6llu req  p50 %8.3f ms  p99 %8.3f ms\n",
              static_cast<unsigned long long>(whatif.requests),
              Percentile(whatif.latencies_ms, 0.50),
              Percentile(whatif.latencies_ms, 0.99));

  const SweepResult cluster =
      RunSweep(port, clients, cluster_per_client, "POST", "/v1/whatif",
               cluster_body, cluster_expected);
  std::printf("  cluster:    %6llu req  p50 %8.3f ms  p99 %8.3f ms\n",
              static_cast<unsigned long long>(cluster.requests),
              Percentile(cluster.latencies_ms, 0.50),
              Percentile(cluster.latencies_ms, 0.99));

  const SweepResult placements =
      RunSweep(port, clients, placements_per_client, "GET", "/v1/placements",
               "", placements_probe.body);
  std::printf("  placements: %6llu req  p50 %8.3f ms  p99 %8.3f ms\n",
              static_cast<unsigned long long>(placements.requests),
              Percentile(placements.latencies_ms, 0.50),
              Percentile(placements.latencies_ms, 0.99));

  const uint64_t connections = daemon.server().connections_accepted();
  const uint64_t served = daemon.server().requests_served();
  daemon.Stop();

  JsonWriter json;
  json.BeginObject()
      .Key("bench").String("serve")
      .Key("fast_mode").Int(fast ? 1 : 0)
      .Key("host_cores").UInt(std::thread::hardware_concurrency());
  json.Key("server").BeginObject()
      .Key("threads").Int(options.server.threads)
      .Key("queue_depth").Int(options.server.queue_depth)
      .Key("connections_accepted").UInt(connections)
      .Key("requests_served").UInt(served)
      .EndObject();
  WriteSweep(json, "healthz", clients, healthz);
  WriteSweep(json, "whatif_trial", clients, whatif);
  WriteSweep(json, "whatif_cluster", clients, cluster);
  WriteSweep(json, "placements", clients, placements);
  json.EndObject();

  if (!WriteFile(out_path, std::move(json).str() + "\n")) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("bench_serve: wrote %s\n", out_path.c_str());

  bool ok = SweepClean("healthz", healthz);
  ok = SweepClean("whatif_trial", whatif) && ok;
  ok = SweepClean("whatif_cluster", cluster) && ok;
  ok = SweepClean("placements", placements) && ok;
  return ok ? 0 : 2;
}

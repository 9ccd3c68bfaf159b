// rhythmd — the Rhythm serving daemon. Serves concurrent what-if queries
// (single co-location trials or whole cluster evaluations) over HTTP,
// bit-identical to the equivalent batch run at the same seed.
//
//   rhythmd --port 8080 --threads 4 &
//   curl -s http://127.0.0.1:8080/healthz
//   body='{"app":"E-commerce","be":"wordcount","seed":7}'
//   curl -s http://127.0.0.1:8080/v1/whatif -d "$body"
//   kill -TERM %1    # graceful drain: in-flight queries finish, exit 0
//
// `--oneshot FILE` evaluates one what-if body from FILE (or stdin with "-")
// through exactly the serving code path and prints the response body — the
// CI smoke job diffs this against the served bytes to prove the boundary is
// deterministic.
//
// Flags:
//   --port N           listen port (default 8080; 0 = kernel-assigned)
//   --host ADDR        bind address (default 127.0.0.1)
//   --threads N        worker threads (default 4)
//   --queue-depth N    admission limit: queued connections before 503 (64)
//   --jobs N           trial worker threads inside a query (RHYTHM_JOBS)
//   --shards N         cluster engine shards (RHYTHM_SHARDS, then --jobs)
//   --snapshot PATH    default path for /v1/snapshot + /v1/restore
//   --restore PATH     restore a snapshot before serving (warm start)
//   --audit-dir DIR    write per-query obs recordings (whatif-<seq>.jsonl)
//   --prewarm LIST     comma-separated app names (or "all") to characterize
//                      before the port opens; apps not in the disk cache
//                      derive as one plan whose profiles and probes share
//                      RHYTHM_JOBS or the core count threads
//   --oneshot FILE     batch mode: evaluate FILE ("-" = stdin), print, exit

#include <signal.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/serve/daemon.h"
#include "src/workload/app_catalog.h"
#include "tools/common_flags.h"

namespace rhythm {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rhythmd [--port N] [--host ADDR] [--threads N]\n"
               "               [--queue-depth N] [--jobs N] [--shards N]\n"
               "               [--snapshot PATH] [--restore PATH]\n"
               "               [--audit-dir DIR] [--prewarm LIST]\n"
               "               [--oneshot FILE]\n");
  return 2;
}

bool ParsePrewarmList(const std::string& list, std::vector<LcAppKind>* out) {
  if (list == "all") {
    *out = AllLcAppKinds();
    return true;
  }
  std::stringstream stream(list);
  std::string name;
  while (std::getline(stream, name, ',')) {
    if (name.empty()) {
      continue;
    }
    LcAppKind app = LcAppKind::kEcommerce;
    if (!ParseLcAppKindName(name, &app)) {
      std::fprintf(stderr, "rhythmd: unknown app '%s' in --prewarm\n",
                   name.c_str());
      return false;
    }
    out->push_back(app);
  }
  return true;
}

int OneShot(const std::string& file, const RunnerOptions& runner) {
  std::string body;
  // A directory fails here too, as a file or as stdin: an empty body would
  // mean "all defaults".
  if (file == "-" ? !ReadFd(0, &body) : !ReadFile(file, &body)) {
    std::fprintf(stderr, "rhythmd: cannot read %s\n", file == "-" ? "stdin" : file.c_str());
    return 1;
  }
  WhatIfEvalOptions options;
  options.runner = runner;
  try {
    // Exactly the served bytes — no trailing newline, so `cmp` against a
    // captured response body passes. This is the CI determinism check.
    std::fputs(EvalWhatIfJson(body, options).c_str(), stdout);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "rhythmd: %s\n", error.what());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  DaemonOptions options;
  options.server.port = 8080;
  std::string restore_path;
  std::string prewarm_list;
  std::string oneshot_file;

  FlagParser flags(argc, argv);
  while (flags.Next()) {
    if (flags.Int("--port", &options.server.port) ||
        flags.Str("--host", &options.server.host) ||
        flags.Int("--threads", &options.server.threads) ||
        flags.Int("--queue-depth", &options.server.queue_depth) ||
        flags.Int("--jobs", &options.runner.jobs) ||
        flags.Int("--shards", &options.runner.shards) ||
        flags.Str("--snapshot", &options.snapshot_path) ||
        flags.Str("--restore", &restore_path) ||
        flags.Str("--audit-dir", &options.audit_dir) ||
        flags.Str("--prewarm", &prewarm_list) ||
        flags.Str("--oneshot", &oneshot_file)) {
      continue;
    }
    std::fprintf(stderr, "rhythmd: unknown or incomplete option '%s'\n",
                 flags.arg().c_str());
    return Usage();
  }

  if (!oneshot_file.empty()) {
    return OneShot(oneshot_file, options.runner);
  }
  if (!prewarm_list.empty() &&
      !ParsePrewarmList(prewarm_list, &options.prewarm)) {
    return 2;
  }

  // Block the shutdown signals BEFORE any thread exists so every server
  // thread inherits the mask and only the sigwait below ever sees them.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  RhythmDaemon daemon(options);
  if (!restore_path.empty()) {
    std::string error;
    if (!daemon.RestoreSnapshot(restore_path, &error)) {
      std::fprintf(stderr, "rhythmd: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "rhythmd: restored %s\n", restore_path.c_str());
  }
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "rhythmd: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "rhythmd: listening on %s:%d\n",
               options.server.host.c_str(), daemon.port());
  std::fflush(stderr);

  int caught = 0;
  sigwait(&signals, &caught);
  std::fprintf(stderr, "rhythmd: signal %d, draining\n", caught);
  daemon.Stop();  // graceful: queued + in-flight queries finish first.
  if (!options.snapshot_path.empty()) {
    std::string save_error;
    if (daemon.SaveSnapshot(options.snapshot_path, &save_error)) {
      std::fprintf(stderr, "rhythmd: snapshot written to %s\n",
                   options.snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "rhythmd: %s\n", save_error.c_str());
    }
  }
  std::fprintf(stderr, "rhythmd: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace rhythm

int main(int argc, char** argv) { return rhythm::Main(argc, argv); }

// HttpServer: a dependency-free HTTP/1.1 server over POSIX sockets — one
// acceptor thread feeding a bounded connection queue drained by a worker
// threadpool. The shape that transfers to any serving stack:
//
//   * Admission control — when the queue is full the acceptor answers 503
//     immediately and closes, so overload degrades into fast rejections
//     instead of unbounded queueing (rejections are counted).
//   * Keep-alive + pipelining — a worker owns a connection until it goes
//     idle, errors, or asks to close; the incremental parser hands over
//     back-to-back requests without waiting for separate reads.
//   * Graceful drain — Stop() shuts the listener, lets workers finish
//     queued and in-flight requests, then joins every thread. In-flight
//     queries are never cut off mid-response.
//
// Handlers run on worker threads and must be thread-safe; the server itself
// never interprets bodies. Routing is exact-match on (method, path) with
// automatic 404/405 answers.

#ifndef RHYTHM_SRC_SERVE_SERVER_H_
#define RHYTHM_SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/http.h"

namespace rhythm {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;        // 0: kernel-assigned ephemeral port (see port()).
  int threads = 4;     // worker threads.
  int queue_depth = 64;  // accepted-but-unserved connection cap (admission).
  HttpLimits limits;
  // Per-read timeout on idle keep-alive connections; bounds how long drain
  // can wait on a silent peer.
  double idle_timeout_s = 5.0;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  explicit HttpServer(ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Registers `handler` for exact (method, path) matches. Must be called
  // before Start().
  void Handle(const std::string& method, const std::string& path,
              HttpHandler handler);

  // Binds, listens and spawns the acceptor + workers. False with a
  // diagnostic in `error` when the socket setup fails.
  bool Start(std::string* error);

  // Graceful drain: stop accepting, serve everything queued and in-flight,
  // join all threads. Idempotent.
  void Stop();

  // The bound port (meaningful after Start(); equals options.port unless it
  // was 0).
  int port() const { return port_; }
  bool running() const { return running_; }

  // Lifetime counters (monotone, thread-safe).
  uint64_t connections_accepted() const { return accepted_; }
  uint64_t connections_rejected() const { return rejected_; }
  uint64_t requests_served() const { return served_; }

 private:
  void AcceptLoop(int listen_fd);
  void WorkerLoop();
  void ServeConnection(int fd);
  HttpResponse Route(const HttpRequest& request);

  ServerOptions options_;
  std::map<std::string, std::map<std::string, HttpHandler>> routes_;  // path -> method.

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted connection fds awaiting a worker.

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> served_{0};
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_SERVER_H_

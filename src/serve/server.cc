#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rhythm {
namespace {

// Writes the whole buffer, riding out EINTR and partial writes. Best-effort:
// a peer that hangs up mid-response just loses the tail.
void WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

void SetRecvTimeout(int fd, double seconds) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

HttpServer::HttpServer(ServerOptions options) : options_(std::move(options)) {
  if (options_.threads < 1) {
    options_.threads = 1;
  }
  if (options_.queue_depth < 1) {
    options_.queue_depth = 1;
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& method, const std::string& path,
                        HttpHandler handler) {
  routes_[path][method] = std::move(handler);
}

bool HttpServer::Start(std::string* error) {
  const auto fail = [this, error](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind(" + options_.host + ":" + std::to_string(options_.port) + ")");
  }
  if (::listen(listen_fd_, options_.queue_depth) != 0) {
    return fail("listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  stopping_ = false;
  running_ = true;
  // The acceptor gets its own copy of the fd, so it never reads the member
  // that Stop() resets.
  acceptor_ = std::thread([this, listen_fd = listen_fd_] { AcceptLoop(listen_fd); });
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stopping_ = true;
  // Shutting the listener down unblocks accept() but keeps the fd number
  // allocated, so it cannot be reused under the acceptor; it is closed only
  // once the acceptor has been joined. The acceptor is joined BEFORE the
  // workers are released: once it is gone no new connection can slip into
  // the queue after the last worker decided the queue was drained.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

void HttpServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener shut down (Stop) or fatal — either way, stop accepting.
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetRecvTimeout(fd, options_.idle_timeout_s);

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() < static_cast<size_t>(options_.queue_depth)) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      ++accepted_;
      queue_cv_.notify_one();
    } else {
      // Admission limit: shed load with an immediate 503 instead of letting
      // the backlog grow without bound.
      ++rejected_;
      HttpResponse overloaded = HttpError(503, "server overloaded, retry later");
      overloaded.close = true;
      WriteAll(fd, RenderHttpResponse(overloaded, /*keep_alive=*/false));
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return !pending_.empty() || stopping_; });
      if (pending_.empty()) {
        return;  // stopping and fully drained.
      }
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  HttpRequestParser parser(options_.limits);
  char buffer[8192];
  bool alive = true;
  while (alive) {
    // Drain every already-buffered (pipelined) request before reading more.
    for (;;) {
      HttpRequest request;
      const HttpRequestParser::Status status = parser.Next(&request);
      if (status == HttpRequestParser::Status::kNeedMore) {
        break;
      }
      if (status == HttpRequestParser::Status::kError) {
        HttpResponse response = HttpError(parser.error_status(), parser.error());
        response.close = true;
        WriteAll(fd, RenderHttpResponse(response, /*keep_alive=*/false));
        alive = false;
        break;
      }
      const HttpResponse response = Route(request);
      ++served_;
      const bool keep = request.keep_alive && !response.close;
      WriteAll(fd, RenderHttpResponse(response, keep));
      if (!keep) {
        alive = false;
        break;
      }
    }
    if (!alive) {
      break;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      parser.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // Peer closed, errored, or sat idle past the receive timeout. During a
    // drain the timeout doubles as the keep-alive grace period.
    break;
  }
  ::close(fd);
}

HttpResponse HttpServer::Route(const HttpRequest& request) {
  const auto by_path = routes_.find(request.Path());
  if (by_path == routes_.end()) {
    return HttpError(404, "no such endpoint: " + request.Path());
  }
  const auto by_method = by_path->second.find(request.method);
  if (by_method == by_path->second.end()) {
    return HttpError(405, request.method + " not supported on " + request.Path());
  }
  try {
    return by_method->second(request);
  } catch (const std::exception& error) {
    return HttpError(500, error.what());
  } catch (...) {
    return HttpError(500, "unhandled handler exception");
  }
}

}  // namespace rhythm

#include "obs/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#if !defined(MATON_OBS_OFF)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

#include "obs/diff.hpp"
#include "obs/expose.hpp"
#include "obs/trace.hpp"

namespace maton::obs {

#if defined(MATON_OBS_OFF)

// Compiled-out plane: no sockets, no threads, no state.
struct ExpoServer::State {};

ExpoServer::ExpoServer() = default;
ExpoServer::~ExpoServer() = default;

Status ExpoServer::start(const std::string& addr) {
  (void)addr;
  return unimplemented("observability compiled out (MATON_OBS_OFF)");
}

void ExpoServer::stop() {}

bool ExpoServer::running() const noexcept { return false; }

std::uint16_t ExpoServer::port() const noexcept { return 0; }

std::string ExpoServer::address() const { return ""; }

#else

namespace {

struct ParsedAddr {
  std::string host;
  std::uint16_t port = 0;
};

Result<ParsedAddr> parse_addr(const std::string& addr) {
  ParsedAddr out;
  std::string port_str = addr;
  if (const auto colon = addr.rfind(':'); colon != std::string::npos) {
    out.host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  if (out.host.empty() || out.host == "localhost") out.host = "127.0.0.1";
  if (port_str.empty()) {
    return invalid_argument("metrics address needs a port: " + addr);
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return invalid_argument("bad metrics port: " + addr);
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

struct Response {
  std::string_view content_type;
  std::string body;
};

void send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing to recover
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void send_response(int fd, int code, std::string_view reason,
                   std::string_view content_type, const std::string& body,
                   bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += body;
  send_all(fd, out.data(), out.size());
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct ExpoServer::State {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::string host;
  std::thread thread;
  std::atomic<bool> stopping{false};
  std::atomic<bool> running{false};
  ScrapeDiff diff;  // touched only from the accept-loop thread
  /// The connection being served (-1 between connections), so stop() can
  /// wake a serve blocked on a slow or silent client. Guarded by
  /// conn_mutex: stop() must never shut down a descriptor number the
  /// loop has already closed and the process reused.
  std::mutex conn_mutex;
  int conn_fd = -1;

  void serve_connection(int fd) {
    // Read until the end of the request headers (or a sane cap); only
    // the request line is interpreted.
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    const auto line_end = req.find("\r\n");
    if (line_end == std::string::npos) return;
    const std::string line = req.substr(0, line_end);
    const auto sp1 = line.find(' ');
    const auto sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 <= sp1) {
      send_response(fd, 400, "Bad Request", "text/plain", "bad request\n",
                    false);
      return;
    }
    const std::string method = line.substr(0, sp1);
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (const auto q = path.find('?'); q != std::string::npos) {
      path.resize(q);  // queries are accepted and ignored
    }
    const bool head = method == "HEAD";
    if (!head && method != "GET") {
      send_response(fd, 405, "Method Not Allowed", "text/plain",
                    "only GET and HEAD\n", false);
      return;
    }

    if (path == "/healthz") {
      send_response(fd, 200, "OK", "text/plain; charset=utf-8", "ok\n",
                    head);
      return;
    }
    if (path == "/trace") {
      send_response(fd, 200, "OK", "application/json",
                    render_chrome_trace(), head);
      return;
    }
    if (path == "/metrics" || path == "/metrics.json") {
      update_derived_gauges();
      const Snapshot snap = diff.augment(MetricRegistry::global().scrape(),
                                         monotonic_seconds());
      if (path == "/metrics") {
        send_response(fd, 200, "OK",
                      "text/plain; version=0.0.4; charset=utf-8",
                      render_prometheus(snap), head);
      } else {
        send_response(fd, 200, "OK", "application/json", render_json(snap),
                      head);
      }
      return;
    }
    send_response(fd, 404, "Not Found", "text/plain", "not found\n", false);
  }

  void accept_loop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (stopping.load(std::memory_order_relaxed)) break;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // listening socket is gone; nothing left to serve
      }
      {
        const std::lock_guard<std::mutex> lock(conn_mutex);
        if (stopping.load(std::memory_order_relaxed)) {
          ::close(fd);
          break;
        }
        conn_fd = fd;
      }
      serve_connection(fd);
      {
        const std::lock_guard<std::mutex> lock(conn_mutex);
        conn_fd = -1;
      }
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }
};

ExpoServer::ExpoServer() : state_(std::make_unique<State>()) {}

ExpoServer::~ExpoServer() { stop(); }

Status ExpoServer::start(const std::string& addr) {
  if (state_->running.load(std::memory_order_relaxed)) {
    return failed_precondition("scrape server already running");
  }
  const auto parsed = parse_addr(addr);
  if (!parsed.is_ok()) return parsed.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return internal_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(parsed.value().port);
  if (::inet_pton(AF_INET, parsed.value().host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return invalid_argument("bad metrics host (want IPv4 literal): " +
                            parsed.value().host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const Status err =
        internal_error("bind " + addr + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  if (::listen(fd, 16) != 0) {
    const Status err =
        internal_error("listen " + addr + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status err =
        internal_error(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return err;
  }

  state_->listen_fd = fd;
  state_->port = ntohs(bound.sin_port);
  state_->host = parsed.value().host;
  state_->stopping.store(false, std::memory_order_relaxed);
  state_->running.store(true, std::memory_order_relaxed);
  state_->thread = std::thread([s = state_.get()] { s->accept_loop(); });
  return Status::ok();
}

void ExpoServer::stop() {
  if (!state_->running.load(std::memory_order_relaxed)) return;
  state_->stopping.store(true, std::memory_order_relaxed);
  // Unblock accept(): shutdown() wakes it on Linux; close() finishes the
  // job everywhere else.
  ::shutdown(state_->listen_fd, SHUT_RDWR);
  ::close(state_->listen_fd);
  {
    // A request in flight: wake its recv/send so the loop can exit.
    const std::lock_guard<std::mutex> lock(state_->conn_mutex);
    if (state_->conn_fd >= 0) ::shutdown(state_->conn_fd, SHUT_RDWR);
  }
  if (state_->thread.joinable()) state_->thread.join();
  state_->listen_fd = -1;
  state_->port = 0;
  state_->running.store(false, std::memory_order_relaxed);
}

bool ExpoServer::running() const noexcept {
  return state_->running.load(std::memory_order_relaxed);
}

std::uint16_t ExpoServer::port() const noexcept { return state_->port; }

std::string ExpoServer::address() const {
  if (!running()) return "";
  return state_->host + ":" + std::to_string(state_->port);
}

#endif  // MATON_OBS_OFF

Status start_from_env(ExpoServer& server) {
  const char* addr = std::getenv("MATON_METRICS_ADDR");
  if (addr == nullptr || *addr == '\0') return Status::ok();
  return server.start(addr);
}

}  // namespace maton::obs

// Copyright 2026 The PLDP Authors.

#include "obs/endpoint.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"

namespace pldp {
namespace obs {
namespace {

/// Reads until the end of the request headers (or the buffer cap, or the
/// client I/O deadline) and returns the request line's path, empty on
/// malformed or incomplete input. With the socket's receive timeout, a
/// client that trickles bytes holds the caller at most about twice the
/// deadline.
std::string ReadRequestPath(int fd) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(TextEndpoint::kClientIoTimeoutSeconds);
  char buf[2048];
  size_t used = 0;
  while (used < sizeof(buf) - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf + used, sizeof(buf) - 1 - used, 0);
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    buf[used] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[used] = '\0';
  // Request line: METHOD SP PATH SP VERSION.
  const char* sp1 = std::strchr(buf, ' ');
  if (sp1 == nullptr) return "";
  const char* sp2 = std::strchr(sp1 + 1, ' ');
  if (sp2 == nullptr) return "";
  if (std::strncmp(buf, "GET ", 4) != 0) return "";
  return std::string(sp1 + 1, sp2);
}

/// Sends all of `data`; false once the peer is gone or stalls past the
/// send timeout. MSG_NOSIGNAL: a write to a reset connection must fail
/// with EPIPE, not raise SIGPIPE in the serving process.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, int status, const char* status_text,
                   const char* content_type, const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + status_text +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (WriteAll(fd, head)) WriteAll(fd, body);
}

/// Bounds every recv and send on an accepted socket, so one client cannot
/// hold the single serve thread indefinitely.
void SetClientIoTimeouts(int fd) {
  timeval tv;
  tv.tv_sec = TextEndpoint::kClientIoTimeoutSeconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

TextEndpoint::TextEndpoint(Routes routes) : routes_(std::move(routes)) {}

TextEndpoint::~TextEndpoint() { Stop(); }

Status TextEndpoint::Start(uint16_t port) {
  lifecycle_role_.Assert();
  // order: acquire pairs with Stop()'s exchange, so a restart observes
  // the previous teardown's writes (closed fd, cleared port).
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("endpoint already running");
  }
  if (!routes_.metrics_text) {
    return Status::InvalidArgument("metrics_text route is required");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind: " + err);
  }
  if (::listen(listen_fd_, 8) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    // order: release publishes the bound port to port() acquire readers.
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }
  // order: release publishes listen_fd_/routes_ setup to Serve()'s
  // acquire load (the thread ctor already sequences this handoff; the
  // release also covers concurrent port()/Stop() observers).
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&TextEndpoint::Serve, this);
  // order: relaxed; same-thread log of the value stored above.
  PLDP_LOG(Info) << "metrics endpoint listening on port "
                 << port_.load(std::memory_order_relaxed);
  return Status::OK();
}

void TextEndpoint::Stop() {
  lifecycle_role_.Assert();
  // order: acq_rel — acquire pairs with Start()'s release so we tear
  // down the fd that run published; release hands the flip (plus any
  // prior writes) to Serve()'s acquire loads and a later Start().
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() unblocks the accept() call so the thread can observe the
  // running_ flip and exit. The fd is closed only AFTER the join: closing
  // first would free the descriptor number while the accept thread may
  // still be entering accept(listen_fd_), and the kernel can hand the same
  // number to any concurrently opened socket or file — the loop would then
  // accept() on an unrelated descriptor. Pinned by
  // tests/obs_endpoint_race_test.cc.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // order: release publishes the cleared port to port() acquire readers.
  port_.store(0, std::memory_order_release);
}

void TextEndpoint::Serve() {
  // order: acquire pairs with Stop()'s acq_rel exchange — observing the
  // flip must also order the shutdown() before our next accept().
  while (running_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      // order: acquire; same pairing as the loop condition above.
      if (!running_.load(std::memory_order_acquire)) break;
      continue;
    }
    SetClientIoTimeouts(client);
    HandleConnection(client);
    ::close(client);
  }
}

void TextEndpoint::HandleConnection(int client_fd) {
  const std::string path = ReadRequestPath(client_fd);
  if (path == "/metrics") {
    WriteResponse(client_fd, 200, "OK",
                  "text/plain; version=0.0.4; charset=utf-8",
                  routes_.metrics_text());
  } else if (path == "/metrics.json" && routes_.metrics_json) {
    WriteResponse(client_fd, 200, "OK", "application/json",
                  routes_.metrics_json());
  } else if (path == "/healthz" && routes_.health_json) {
    WriteResponse(client_fd, 200, "OK", "application/json",
                  routes_.health_json());
  } else if (path.empty()) {
    WriteResponse(client_fd, 400, "Bad Request", "text/plain", "bad request\n");
  } else {
    WriteResponse(client_fd, 404, "Not Found", "text/plain", "not found\n");
  }
}

}  // namespace obs
}  // namespace pldp

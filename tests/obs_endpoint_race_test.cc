// Copyright 2026 The PLDP Authors.
//
// Pins the TextEndpoint shutdown ordering bug: Stop() used to close the
// listener fd BEFORE joining the accept thread. Between the close and the
// join the kernel may hand the same fd number to a concurrently opened
// socket (any client connection in these loops), so the accept thread's
// in-flight ::accept could then operate on a stranger's descriptor. The
// fix (src/obs/endpoint.cc) shuts the listener down to unblock the accept
// thread, joins it, and only then closes the fd. These loops turn that
// window into a reliably exercised path — rapid Start/Stop cycles with
// client traffic in flight — and double as a TSan check in CI.
//
// It also pins what a misbehaving client may cost the serving process:
// a peer that resets before the reply is written must not raise SIGPIPE
// (the test process would die), and a peer that connects and sends
// nothing may hold the single serve thread, and Stop(), only for about
// TextEndpoint::kClientIoTimeoutSeconds.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/endpoint.h"

namespace pldp {
namespace obs {
namespace {

/// Connects to the endpoint on loopback; -1 on failure.
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Minimal HTTP client: one GET, full response; "" on any socket failure
/// (connection refusals while the endpoint restarts are expected here).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

constexpr double kIoTimeout = TextEndpoint::kClientIoTimeoutSeconds;

/// A client that connects and sends nothing. It hangs up when destroyed,
/// or after 5x the timeout at the latest, so an endpoint without client
/// timeouts fails the timing checks below instead of hanging the test.
class IdleClient {
 public:
  explicit IdleClient(uint16_t port) : fd_(Connect(port)) {
    hangup_ = std::thread([this, done = released_.get_future()] {
      done.wait_for(std::chrono::duration<double>(5 * kIoTimeout));
      if (fd_ >= 0) ::close(fd_);
    });
  }
  ~IdleClient() {
    released_.set_value();
    hangup_.join();
  }

  bool connected() const { return fd_ >= 0; }

 private:
  std::promise<void> released_;
  const int fd_;
  std::thread hangup_;
};

TEST(EndpointRaceTest, StopRacingInFlightRequests) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string("metric_a 1\n"); };
  TextEndpoint endpoint(std::move(routes));
  ASSERT_TRUE(endpoint.Start(0).ok());
  const uint16_t port = endpoint.port();
  ASSERT_NE(port, 0);

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (HttpGet(port, "/metrics").find("200 OK") != std::string::npos) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let the clients get requests in flight, then stop the endpoint from
  // under them. With join-before-close this is clean; with the old
  // ordering the accept thread could touch a recycled fd number owned by
  // one of the client sockets above.
  while (served.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  endpoint.Stop();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  EXPECT_GE(served.load(), 8u);
}

TEST(EndpointRaceTest, RapidStartStopCyclesWithTraffic) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string("cycle_metric 1\n"); };
  TextEndpoint endpoint(std::move(routes));

  std::atomic<uint16_t> current_port{0};
  std::atomic<bool> stop{false};
  std::thread client([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint16_t port = current_port.load(std::memory_order_acquire);
      if (port != 0) (void)HttpGet(port, "/metrics");
    }
  });

  for (int cycle = 0; cycle < 24; ++cycle) {
    ASSERT_TRUE(endpoint.Start(0).ok());
    current_port.store(endpoint.port(), std::memory_order_release);
    // At least one successful scrape per cycle keeps the accept thread
    // genuinely busy when Stop lands.
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (HttpGet(endpoint.port(), "/metrics").find("200 OK") !=
          std::string::npos) {
        break;
      }
    }
    current_port.store(0, std::memory_order_release);
    endpoint.Stop();
    endpoint.Stop();  // idempotent under the new ordering too
  }

  stop.store(true, std::memory_order_release);
  client.join();
}

TEST(EndpointRaceTest, PeerResetDoesNotKillTheServer) {
  // A body far larger than the socket buffers, so the serve thread is
  // still writing when the reset lands. Without MSG_NOSIGNAL the write to
  // the reset connection raises SIGPIPE and this test process dies.
  const std::string body(4 << 20, 'x');
  TextEndpoint::Routes routes;
  routes.metrics_text = [&body] { return body; };
  TextEndpoint endpoint(std::move(routes));
  ASSERT_TRUE(endpoint.Start(0).ok());

  for (int i = 0; i < 8; ++i) {
    const int fd = Connect(endpoint.port());
    ASSERT_GE(fd, 0);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    // Linger {on, 0}: close() sends RST instead of FIN.
    linger reset = {1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
              0);
    ::close(fd);
  }

  const std::string response = HttpGet(endpoint.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find(body), std::string::npos);
  endpoint.Stop();
}

TEST(EndpointRaceTest, IdleClientDelaysQueuedScrapeOnlyByTheTimeout) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string("queued_metric 1\n"); };
  TextEndpoint endpoint(std::move(routes));
  ASSERT_TRUE(endpoint.Start(0).ok());

  // The serve thread accepts the idle client first; the scrape queues
  // behind it.
  IdleClient idle(endpoint.port());
  ASSERT_TRUE(idle.connected());

  const auto start = std::chrono::steady_clock::now();
  const std::string response = HttpGet(endpoint.port(), "/metrics");
  EXPECT_LT(SecondsSince(start), kIoTimeout + 1.5);
  EXPECT_NE(response.find("queued_metric 1"), std::string::npos);
  endpoint.Stop();
}

TEST(EndpointRaceTest, StopReturnsWhileAClientIdles) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string("idle_metric 1\n"); };
  TextEndpoint endpoint(std::move(routes));
  ASSERT_TRUE(endpoint.Start(0).ok());

  IdleClient idle(endpoint.port());
  ASSERT_TRUE(idle.connected());
  // Let the serve thread accept the idle connection and block reading it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  endpoint.Stop();
  EXPECT_LT(SecondsSince(start), 2 * kIoTimeout);
}

}  // namespace
}  // namespace obs
}  // namespace pldp

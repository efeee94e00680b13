// Copyright 2026 The PLDP Authors.
//
// A deliberately tiny blocking scrape endpoint: one listener socket, one
// accept thread, one request served at a time. This is NOT a web server —
// it exists so `curl http://host:port/metrics` and a Prometheus scraper
// work against the service examples with zero dependencies. Routes:
//
//   GET /metrics        -> Prometheus text exposition (format 0.0.4)
//   GET /metrics.json   -> obs::RenderJson document
//   GET /healthz        -> obs::RenderHealthJson document
//
// The payload producers are caller-supplied callbacks invoked per request
// on the accept thread; they must be thread-safe against the running
// pipeline (Pipeline::MetricsSnapshot and Health are).
//
// A client cannot take the endpoint down: every accepted socket gets
// receive and send timeouts of kClientIoTimeoutSeconds, so an idle or
// stalled client holds the single serve thread (and Stop()) for a bounded
// time, and writes use MSG_NOSIGNAL, so a peer that resets mid-response
// costs one failed send instead of a SIGPIPE in the serving process.

#ifndef PLDP_OBS_ENDPOINT_H_
#define PLDP_OBS_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace pldp {
namespace obs {

class TextEndpoint {
 public:
  /// Route payload producer; returns the response body.
  using Producer = std::function<std::string()>;

  /// Per-call recv/send timeout on each accepted socket; reading one
  /// request also stops at this deadline.
  static constexpr int kClientIoTimeoutSeconds = 2;

  struct Routes {
    Producer metrics_text;  ///< /metrics (required)
    Producer metrics_json;  ///< /metrics.json (optional; 404 when absent)
    Producer health_json;   ///< /healthz (optional; 404 when absent)
  };

  explicit TextEndpoint(Routes routes);
  ~TextEndpoint();

  TextEndpoint(const TextEndpoint&) = delete;
  TextEndpoint& operator=(const TextEndpoint&) = delete;

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port — read it back via
  /// port()) and starts the accept thread. Lifecycle calls (Start/Stop/
  /// destructor) must come from one orchestrating thread at a time.
  Status Start(uint16_t port);

  /// Joins the accept thread, then closes the listener. Idempotent.
  /// Returns within about kClientIoTimeoutSeconds even while a client
  /// holds a connection open without sending.
  void Stop();

  /// The bound port; 0 before Start.
  // order: acquire pairs with Start()'s release store of the bound port.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

 private:
  void Serve();
  void HandleConnection(int client_fd);

  /// Single-orchestrator contract on Start/Stop (asserted, not acquired —
  /// see common/thread_annotations.h on caller-contract roles).
  ThreadRole lifecycle_role_;

  Routes routes_;
  /// Written by the orchestrator only; the accept thread reads it until
  /// its join, which is why Stop() must join before closing/resetting it.
  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::thread accept_thread_ PLDP_GUARDED_BY(lifecycle_role_);
};

}  // namespace obs
}  // namespace pldp

#endif  // PLDP_OBS_ENDPOINT_H_

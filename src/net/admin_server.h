// Admin endpoint: the cluster's externally visible introspection surface.
//
// Two layers, deliberately separable:
//
//  * AdminEndpoint — route table mapping paths to in-process handlers over
//    one ClusterServer: /metrics (Prometheus exposition), /healthz (one
//    watchdog pass; non-200 when UNHEALTHY), /status (human-readable
//    component table), /stack (JSON engine-stack + cursor introspection),
//    /top (per-metric rate table from the time-series ring), /series
//    (time-series JSON), /flight (recorder tail), /trace/<id>, /latency
//    (per-stage latency attribution + critical-path dominance), /slow
//    (slow-trace exemplar list; /slow/<trace-id> detail), /workload
//    (per-layer resource accounting + hot-spot verdicts), /top/keys and
//    /top/clients (heavy-hitter tables from the workload sketches),
//    /digest (digest-beacon counters + sample table) and /divergence (the
//    earliest-divergence conviction report).
//    Appending ?format=json to /metrics, /status, /top, /latency, /slow,
//    /workload, /top/keys, /top/clients, /digest, or /divergence switches
//    the body to machine-readable JSON (the `delosctl --json` transport).
//    Handle() is a plain function call, so unit tests and the simulator
//    exercise every route with no sockets.
//
//  * AdminServer — a minimal HTTP/1.1 server that binds a loopback socket
//    and serves an AdminEndpoint. One thread, serial request handling
//    (admin traffic is a human or a scraper, not a workload), poll()-based
//    accept so shutdown is prompt. Port 0 picks an ephemeral port
//    (`port()` reports the bound one) — tests and the delosctl --demo
//    cluster rely on that.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "src/core/cluster.h"

namespace delos {

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminEndpoint {
 public:
  // Routes serve `server`'s metrics/health/stack and its planes; the server
  // must outlive the endpoint. A route whose plane (or tracer) the server
  // runs without returns 404 "<plane> is not enabled".
  explicit AdminEndpoint(ClusterServer* server);

  // Dispatches one request path ("/metrics", "/trace/7", ...). The only
  // recognized query parameter is format=json; everything else in a query
  // string is ignored. Unknown paths return 404.
  AdminResponse Handle(const std::string& path) const;

 private:
  ClusterServer* server_;
};

class AdminServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";  // loopback only by default
    uint16_t port = 0;                       // 0 = ephemeral
  };

  explicit AdminServer(AdminEndpoint endpoint) : AdminServer(std::move(endpoint), Options{}) {}
  AdminServer(AdminEndpoint endpoint, Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds and spawns the serving thread. Returns false (with no thread) if
  // the socket could not be bound.
  bool Start();
  void Stop();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

 private:
  void ServeLoopMain();
  void HandleConnection(int fd);

  AdminEndpoint endpoint_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_{false};
  std::thread thread_;
};

// One-shot HTTP GET against a local admin server (the delosctl transport and
// the fig11 bench's scrape). Returns false on connect/IO failure; fills
// `status` and `body` on success.
bool AdminHttpGet(const std::string& host, uint16_t port, const std::string& path, int* status,
                  std::string* body);

}  // namespace delos

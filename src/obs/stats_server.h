// Embedded HTTP/1.0 stats server: the pull half of the telemetry tier.
//
// One listening socket, one accept thread, one request per connection,
// no dependencies — a scrape target, not a web framework. The accept
// loop polls with a short timeout so Stop() never blocks on a quiet
// socket, and every request must arrive within a fixed deadline from
// accept (2 s, however the client paces its bytes), so a stalled or
// trickling client cannot wedge the loop.
//
// Endpoints (GET only):
//   /metrics        Prometheus text exposition (FormatPrometheus)
//   /metrics.json   the same snapshot as flat JSON
//   /healthz        200 when the watchdog says ok/degraded, 503 when
//                   unhealthy; body is the watchdog's status JSON
//   /statusz        human text: uptime, build, config, health rules,
//                   windowed rates, top-stage latency table, drops
//   /tracez         span rings as about:tracing JSON — a *peek*
//                   (SnapshotTail), so --trace-out still drains
//
// Handle() is the pure request->response core; the socket loop and the
// unit tests both call it, so endpoint behavior is testable without
// binding a port. Serving a request reads registry snapshots only —
// it never touches pipeline state, which is how reports stay
// bit-identical with the server on or off.

#ifndef SCPRT_OBS_STATS_SERVER_H_
#define SCPRT_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace scprt::obs {

/// Where the stats server listens and what it serves.
struct StatsServerOptions {
  /// "host:port"; port 0 binds an ephemeral port (see port()).
  std::string address = "127.0.0.1:0";
  Registry* registry = nullptr;  ///< Registry::Default() when null
  Tracer* tracer = nullptr;      ///< Tracer::Default() when null
  Sampler* sampler = nullptr;    ///< optional: enables /statusz rates
  Watchdog* watchdog = nullptr;  ///< optional: enables /healthz 503s
  std::string build_info;        ///< shown on /statusz
  /// Free-form config lines for /statusz (backend, store, threads...).
  std::vector<std::pair<std::string, std::string>> config;
};

/// The embedded HTTP/1.0 stats server (see the file comment).
class StatsServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  explicit StatsServer(StatsServerOptions options);
  ~StatsServer();
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds, listens and starts the accept thread. False + `error` on
  /// failure (bad address, port in use).
  bool Start(std::string* error);
  void Stop();

  /// The bound port (resolves port 0), 0 before Start.
  int port() const { return port_; }
  /// "host:port" with the bound port.
  std::string address() const;

  /// Routes one request target to a response (no socket involved).
  Response Handle(std::string_view target) const;

  /// Requests served since start (the obs.stats.requests counter).
  std::uint64_t requests() const { return requests_->Value(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  std::string StatuszText() const;

  StatsServerOptions options_;
  Registry* registry_;
  Tracer* tracer_;
  Counter* requests_;
  std::string host_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Minimal blocking HTTP GET against 127.0.0.1-style numeric hosts:
/// returns the status code and fills `body` (when non-null), or -1 on
/// connect/protocol failure. For tests, benches and smoke scripts.
int HttpGet(const std::string& host, int port, const std::string& target,
            std::string* body);

}  // namespace scprt::obs

#endif  // SCPRT_OBS_STATS_SERVER_H_

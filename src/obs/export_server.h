// The metrics/trace export server: a minimal HTTP/1.0 endpoint on a
// loopback TCP port.
//
// Endpoints:
//   GET /metrics       Prometheus text exposition 0.0.4
//   GET /metrics.json  JSON snapshot of every instrument
//   GET /top           TSV per-actor table consumed by tools/cwf_top
//   GET /trace.json    Chrome trace-event JSON from the global wave tracer
//
// One accept thread serves requests synchronously (scrapes are cheap and a
// diagnostics endpoint does not need concurrency); every response closes
// the connection. Bind to port 0 for an ephemeral port (tests).

#ifndef CONFLUENCE_OBS_EXPORT_SERVER_H_
#define CONFLUENCE_OBS_EXPORT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace cwf::obs {

/// \brief Render the /top per-actor TSV table from `registry`. First line
/// is "# ts_us <host monotonic µs>" (the client's rate time base), second
/// the column header, then one row per actor known to the registry.
std::string RenderTopTsv(const MetricsRegistry& registry);

class MetricsServer {
 public:
  /// \brief Serve `registry` (nullptr = the global registry).
  explicit MetricsServer(MetricsRegistry* registry = nullptr);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// \brief Bind 127.0.0.1:`port` (0 = ephemeral) and start serving.
  Status Start(uint16_t port);

  /// \brief Shut the socket down and join the accept thread. Idempotent.
  void Stop();

  /// \brief The bound port (valid after Start succeeds).
  uint16_t port() const { return port_; }

  uint64_t requests_served() const { return requests_.load(); }

 private:
  void AcceptLoop();
  void ServeClient(int client_fd);

  /// \brief Build the full HTTP response for `path`.
  std::string HandleRequest(const std::string& path) const;

  MetricsRegistry* registry_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_{0};
  uint16_t port_ = 0;
  std::thread accept_thread_;
};

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_EXPORT_SERVER_H_

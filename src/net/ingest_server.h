// Front-door ingestion at connection scale: an epoll-based, non-blocking
// TCP server that fans thousands of concurrent client connections into the
// workflow's PushChannels.
//
// The paper's push actors "connect to external data streams (through TCP or
// HTTP connections)" and pump tuples "at a rate dictated by the director's
// execution model". IngestServer is that transport, built to scale from a
// handful of sources to thousands of connections:
//
//   * One acceptor thread owns the listening socket and hands accepted fds
//     to N event-loop shards round-robin. Each shard runs a level-triggered
//     epoll loop over its connections plus an eventfd used for adoption,
//     space-available and shutdown wakeups. A connection lives on exactly
//     one shard for its whole life, so per-connection state needs no lock.
//
//   * Both wire protocols of net/frame.h are spoken on every port; the
//     first byte of a connection picks the protocol (0xCF = binary frames
//     with explicit channel ids, anything else = newline line protocol into
//     the connection's default channel).
//
//   * Per-connection backpressure against bounded channels: when a deposit
//     is refused (PushOutcome::kFull) the tuple goes into the connection's
//     staging buffer — order is preserved, nothing is dropped — and once
//     staging reaches its bound the shard removes the fd from the epoll
//     read-interest set. The kernel's TCP receive window then pushes back
//     on the client. The channel's space-available callback (fired by the
//     consumer once the queue drains to half capacity) wakes every shard;
//     shards drain staging via TryPushBatch and re-arm EPOLLIN. Bounded
//     channel + paused reads + full staging = zero tuple loss under
//     overload, end to end.
//
//   * Boundary hardening: tuples are schema-checked with the non-fatal
//     PushChannel::CheckToken before deposit, so a malicious client feeds a
//     reject counter instead of tripping the engine's CWF7008 abort.
//
//   * Observability: cwf_ingest_* counters/gauges/histograms in the global
//     MetricsRegistry, `<ingest>` pseudo-actor profile phases
//     (serialization = decode+parse, receiver_put = channel deposit), and
//     an optional access log flushed through net/background_writer.h so the
//     event loops never block on disk.

#ifndef CONFLUENCE_NET_INGEST_SERVER_H_
#define CONFLUENCE_NET_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/clock.h"
#include "net/background_writer.h"
#include "net/frame.h"
#include "stream/push_channel.h"

namespace cwf::obs {
struct ProfileSite;
class Counter;
class Gauge;
class Histogram;
}  // namespace cwf::obs

namespace cwf::net {

/// \brief Multi-client epoll ingest server. Register channels, Start(),
/// Stop(). All configuration happens before Start().
class IngestServer {
 public:
  struct Options {
    /// Event-loop shard (thread) count.
    int shards = 2;
    /// Live-connection bound; clients past it are accepted and immediately
    /// closed (counted in connections_rejected).
    size_t max_connections = 8192;
    /// Staged tuples per connection before its fd leaves the epoll
    /// read-interest set. Staging may transiently overshoot by the tuples
    /// decoded from one already-read 16 KiB buffer — the bound gates
    /// further socket reads, it never drops a decoded tuple.
    size_t staging_limit = 256;
    /// Access-log path ("" = no access log). Connect/close/error events,
    /// one line each, flushed off-thread by a BackgroundWriter.
    std::string access_log_path;
    /// Close every registered channel on Stop() so a workflow reading
    /// them drains and terminates. Turn off when the channels outlive the
    /// server.
    bool close_channels_on_stop = true;
    /// Listen address (the loopback default keeps tests self-contained;
    /// "0.0.0.0" opens the front door).
    std::string bind_address = "127.0.0.1";
  };

  /// \brief Tuples are stamped with `clock->Now()` as their arrival time at
  /// the moment they are decoded.
  IngestServer(Clock* clock, Options options);
  explicit IngestServer(Clock* clock) : IngestServer(clock, Options()) {}
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// \brief Register `channel` under binary-frame `channel_id`. Id 0 is
  /// also the default channel line-protocol tuples land on. `name` labels
  /// the per-channel metrics (defaults to "ch<id>"). Call before Start().
  void AddChannel(uint16_t channel_id, PushChannelPtr channel,
                  std::string name = "");

  /// \brief Bind `bind_address`:`port` (0 picks an ephemeral port), start
  /// the acceptor and shard threads.
  Status Start(uint16_t port = 0);

  /// \brief The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// \brief Stop accepting, flush staging once, close every connection,
  /// join all threads (and close the channels when configured). Idempotent.
  void Stop();

  bool running() const { return running_.load(); }

  // Lifetime totals (monotone) and live state, readable from any thread.
  uint64_t connections_accepted() const { return accepted_.load(); }
  uint64_t connections_rejected() const { return rejected_.load(); }
  int64_t connections_live() const { return live_.load(); }
  uint64_t tuples_received() const { return tuples_.load(); }
  uint64_t bytes_received() const { return bytes_.load(); }
  uint64_t parse_errors() const { return parse_errors_.load(); }
  uint64_t schema_rejects() const { return schema_rejects_.load(); }
  uint64_t frame_errors() const { return frame_errors_.load(); }
  uint64_t unknown_channel_frames() const { return unknown_channel_.load(); }
  uint64_t backpressure_pauses() const { return pauses_.load(); }
  int64_t connections_paused() const { return paused_now_.load(); }
  uint64_t backpressure_paused_us() const { return paused_us_.load(); }
  /// Tuples still staged at Stop() that no channel would take (the one
  /// path that sheds data, and only at shutdown).
  uint64_t staged_dropped() const { return staged_dropped_.load(); }

  /// \brief Tuples delivered into the channel registered as `channel_id`
  /// (0 when the id is unknown).
  uint64_t channel_tuples(uint16_t channel_id) const;

  BackgroundWriter* access_log() { return access_log_.get(); }

 private:
  struct ChannelSlot;
  struct Connection;
  class Shard;

  void AcceptLoop();
  void LogAccess(std::string_view event, int fd, std::string_view detail);
  ChannelSlot* FindChannel(uint16_t channel_id);
  void ResolveInstruments();
  void OnConnectionGone();

  Clock* clock_;
  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;

  // Channel table: fixed after Start(), read lock-free by every shard.
  std::vector<std::unique_ptr<ChannelSlot>> channels_;
  // Line-protocol tuples land on channel id 0 (null when not registered).
  ChannelSlot* default_slot_ = nullptr;

  // Shared with the channels' space-available callbacks: each callback
  // captures a snapshot copy of this vector, so an invocation in flight
  // across Stop()+Start() keeps the old shards alive instead of iterating
  // a vector the restart is clearing (Wake() on a joined shard is a
  // harmless eventfd write).
  std::vector<std::shared_ptr<Shard>> shards_;
  std::unique_ptr<BackgroundWriter> access_log_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<int64_t> live_{0};
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> schema_rejects_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> unknown_channel_{0};
  std::atomic<uint64_t> pauses_{0};
  std::atomic<int64_t> paused_now_{0};
  std::atomic<uint64_t> paused_us_{0};
  std::atomic<uint64_t> staged_dropped_{0};

  // Instruments resolved once at Start (null when obs is compiled out or
  // disabled); shards touch only these pointers on the hot path.
  obs::Gauge* g_connections_ = nullptr;
  obs::Counter* c_accepted_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
  obs::Counter* c_parse_errors_ = nullptr;
  obs::Counter* c_schema_rejects_ = nullptr;
  obs::Counter* c_frame_errors_ = nullptr;
  obs::Gauge* g_paused_ = nullptr;
  obs::Counter* c_pauses_ = nullptr;
  obs::Histogram* h_pause_us_ = nullptr;
  const obs::ProfileSite* decode_site_ = nullptr;
  const obs::ProfileSite* deposit_site_ = nullptr;
};

}  // namespace cwf::net

#endif  // CONFLUENCE_NET_INGEST_SERVER_H_

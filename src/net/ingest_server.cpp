#include "net/ingest_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/logging.h"
#include "obs/profile.h"
#include "stream/trace.h"

namespace cwf::net {

namespace {

/// Bytes per socket read; also the unit of staging overshoot.
constexpr size_t kReadBufferBytes = 16 * 1024;

/// Host-side monotone microseconds for pause durations and access-log
/// stamps (independent of the engine Clock, which may be virtual).
int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string FormatPeer(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

enum class WireProtocol : uint8_t { kUndecided, kLine, kBinary };

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct IngestServer::ChannelSlot {
  uint16_t id = 0;
  std::string name;
  PushChannelPtr channel;
  obs::Counter* c_tuples = nullptr;
  std::atomic<uint64_t> tuples{0};
};

struct IngestServer::Connection {
  int fd = -1;
  std::string peer;
  WireProtocol protocol = WireProtocol::kUndecided;
  LineDecoder line_decoder;
  FrameDecoder frame_decoder;

  struct Staged {
    ChannelSlot* slot;
    TraceEntry entry;
  };
  /// Decoded tuples a full channel refused, in arrival order. While
  /// non-empty every further deposit appends here (ordering), and past
  /// staging_limit the fd leaves the epoll read-interest set.
  std::deque<Staged> staged;

  bool paused = false;      ///< fd removed from read interest
  bool eof = false;         ///< peer finished cleanly
  bool fatal = false;       ///< protocol/read/channel error; stop reading
  bool done = false;        ///< no more reads ever; destroy once drained
  bool backlogged = false;  ///< member of the shard's backlog list
  int64_t pause_start_us = 0;
  int parse_error_logs = 0;
};

/// One event-loop shard: an epoll fd over this shard's connections plus an
/// eventfd for adoption / space-available / shutdown wakeups. Everything
/// except the adoption queue is owned by the shard thread — no locks on the
/// read path.
class IngestServer::Shard {
 public:
  Shard(IngestServer* server, int index) : server_(server), index_(index) {}

  ~Shard() {
    Join();
    if (event_fd_ >= 0) {
      ::close(event_fd_);
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
  }

  Status Start() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      return Status::Internal("epoll_create1 failed: " +
                              std::string(std::strerror(errno)));
    }
    event_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (event_fd_ < 0) {
      return Status::Internal("eventfd failed: " +
                              std::string(std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = event_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
      return Status::Internal("epoll_ctl(eventfd) failed: " +
                              std::string(std::strerror(errno)));
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Hand an accepted fd to this shard (acceptor thread).
  void Adopt(int fd) {
    {
      ScopedLock lock(mutex_);
      pending_fds_.push_back(fd);
    }
    Wake();
  }

  /// Nudge the event loop (any thread; also the channels' space-available
  /// callback target).
  void Wake() {
    const uint64_t one = 1;
    if (event_fd_ >= 0) {
      [[maybe_unused]] const ssize_t n =
          ::write(event_fd_, &one, sizeof(one));
    }
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Loop() {
    std::vector<epoll_event> events(128);
    read_buf_.resize(kReadBufferBytes);
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), -1);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      bool woken = false;
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == event_fd_) {
          DrainEventFd();
          woken = true;
          continue;
        }
        auto it = conns_.find(events[i].data.fd);
        if (it == conns_.end()) {
          continue;
        }
        Connection* conn = it->second.get();
        // A backpressure-paused fd is registered with events=0, but epoll
        // still reports error conditions (peer RST while paused). ReadFrom
        // skips paused connections, so without consuming the condition
        // here the level-triggered wait would return instantly forever.
        if (conn->paused &&
            (events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          server_->LogAccess("peer_error", conn->fd, conn->peer);
          conn->fatal = true;
          FinishReads(conn);
          continue;
        }
        ReadFrom(conn);
      }
      if (server_->stopping_.load()) {
        break;
      }
      if (woken) {
        AdoptPending();
        DrainBacklog();
      }
    }
    ShutdownAll();
  }

  void DrainEventFd() {
    uint64_t buf;
    while (::read(event_fd_, &buf, sizeof(buf)) > 0) {
    }
  }

  void AdoptPending() {
    std::vector<int> fds;
    {
      ScopedLock lock(mutex_);
      fds.swap(pending_fds_);
    }
    for (int fd : fds) {
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) ==
          0) {
        conn->peer = FormatPeer(peer);
      }
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        server_->LogAccess("epoll_error", fd, std::strerror(errno));
        ::close(fd);
        server_->OnConnectionGone();
        continue;
      }
      conns_.emplace(fd, std::move(conn));
    }
  }

  /// Read until EAGAIN / pause / end-of-stream, decoding as we go.
  void ReadFrom(Connection* conn) {
    if (conn->done) {
      return;  // stale event for a connection already finishing
    }
    while (!conn->paused && !conn->fatal && !conn->eof) {
      const ssize_t n = ::read(conn->fd, read_buf_.data(), read_buf_.size());
      if (n > 0) {
        server_->bytes_.fetch_add(static_cast<uint64_t>(n));
        if (server_->c_bytes_ != nullptr) {
          server_->c_bytes_->Add(static_cast<uint64_t>(n));
        }
        DispatchBytes(conn, read_buf_.data(), static_cast<size_t>(n));
        if (!conn->staged.empty()) {
          TryDrainStaged(conn);
          SettleBacklog(conn);
        }
        if (conn->staged.size() >= server_->options_.staging_limit) {
          PauseConn(conn);
        }
      } else if (n == 0) {
        conn->eof = true;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        server_->LogAccess("read_error", conn->fd, std::strerror(errno));
        conn->fatal = true;
      }
    }
    if (conn->eof || conn->fatal) {
      FinishReads(conn);
    }
  }

  void DispatchBytes(Connection* conn, const char* data, size_t n) {
    if (n == 0) {
      return;
    }
    if (conn->protocol == WireProtocol::kUndecided) {
      conn->protocol = (static_cast<uint8_t>(data[0]) == kFrameMagic)
                           ? WireProtocol::kBinary
                           : WireProtocol::kLine;
    }
    if (conn->protocol == WireProtocol::kBinary) {
      const Status st = conn->frame_decoder.Feed(
          data, n, [this, conn](Frame&& frame) {
            ChannelSlot* slot = server_->FindChannel(frame.channel_id);
            if (slot == nullptr) {
              server_->unknown_channel_.fetch_add(1);
              if (server_->c_frame_errors_ != nullptr) {
                server_->c_frame_errors_->Add(1);
              }
              return;  // drop the frame; the stream itself is still framed
            }
            HandleTuple(conn, slot, frame.payload);
          });
      if (!st.ok()) {
        server_->frame_errors_.fetch_add(1);
        if (server_->c_frame_errors_ != nullptr) {
          server_->c_frame_errors_->Add(1);
        }
        server_->LogAccess("frame_error", conn->fd, st.message());
        conn->fatal = true;
      }
    } else {
      const Status st = conn->line_decoder.Feed(
          data, n, [this, conn](std::string_view line) {
            if (server_->default_slot_ == nullptr) {
              server_->unknown_channel_.fetch_add(1);
              conn->fatal = true;  // no line-protocol channel on this server
              return;
            }
            HandleTuple(conn, server_->default_slot_, line);
          });
      if (!st.ok()) {
        // Oversized line: same boundary violation as an oversized frame.
        server_->frame_errors_.fetch_add(1);
        if (server_->c_frame_errors_ != nullptr) {
          server_->c_frame_errors_->Add(1);
        }
        server_->LogAccess("line_error", conn->fd, st.message());
        conn->fatal = true;
      }
    }
  }

  /// Decode one tuple body, schema-check it at the trust boundary, and
  /// deposit (or stage) it.
  void HandleTuple(Connection* conn, ChannelSlot* slot,
                   std::string_view body) {
    if (conn->fatal) {
      return;  // a deposit already hit a closed channel mid-buffer
    }
    Result<Token> parsed = [&] {
      CWF_PROFILE_SCOPE(server_->decode_site_);
      return ParseTokenBody(body);
    }();
    if (!parsed.ok()) {
      server_->parse_errors_.fetch_add(1);
      if (server_->c_parse_errors_ != nullptr) {
        server_->c_parse_errors_->Add(1);
      }
      if (conn->parse_error_logs++ < 3) {
        CWF_CLOG(kWarn, "net")
            << "ingest dropped malformed tuple from " << conn->peer << ": "
            << parsed.status().ToString();
      }
      return;
    }
    Token token = std::move(parsed).value();
    // Non-fatal schema check: a client pushing tuples that violate the
    // channel's declared schema must feed a counter, not trip the engine's
    // CWF7008 abort inside the channel.
    const Status schema = slot->channel->CheckToken(token);
    if (!schema.ok()) {
      server_->schema_rejects_.fetch_add(1);
      if (server_->c_schema_rejects_ != nullptr) {
        server_->c_schema_rejects_->Add(1);
      }
      if (conn->parse_error_logs++ < 3) {
        CWF_CLOG(kWarn, "net")
            << "ingest rejected off-schema tuple from " << conn->peer << ": "
            << schema.ToString();
      }
      return;
    }
    TraceEntry entry{server_->clock_->Now(), std::move(token)};
    if (!conn->staged.empty()) {
      // Ordering: while anything is staged, later tuples must queue behind
      // it even if the channel has room again.
      conn->staged.push_back({slot, std::move(entry)});
      return;
    }
    // Single-entry TryPushBatch rather than Offer: the batch API moves the
    // token only on acceptance, so a refused tuple is still whole and can
    // be staged (Offer consumes its by-value argument either way).
    size_t accepted;
    {
      CWF_PROFILE_SCOPE(server_->deposit_site_);
      accepted = slot->channel->TryPushBatch(std::span(&entry, 1));
    }
    if (accepted == 1) {
      CountDelivered(slot, 1);
    } else if (slot->channel->closed()) {
      server_->staged_dropped_.fetch_add(1);
      conn->fatal = true;  // engine is gone; stop reading
    } else {
      conn->staged.push_back({slot, std::move(entry)});
    }
  }

  void CountDelivered(ChannelSlot* slot, size_t n) {
    server_->tuples_.fetch_add(n);
    slot->tuples.fetch_add(n);
    if (slot->c_tuples != nullptr) {
      slot->c_tuples->Add(n);
    }
  }

  /// Drain the connection's staging buffer, batching runs of same-channel
  /// tuples through TryPushBatch (one lock acquisition per run).
  void TryDrainStaged(Connection* conn) {
    while (!conn->staged.empty()) {
      ChannelSlot* slot = conn->staged.front().slot;
      scratch_.clear();
      size_t run = 0;
      for (const auto& s : conn->staged) {
        if (s.slot != slot) {
          break;
        }
        ++run;
      }
      scratch_.reserve(run);
      for (size_t i = 0; i < run; ++i) {
        scratch_.push_back(std::move(conn->staged[i].entry));
      }
      size_t accepted;
      {
        CWF_PROFILE_SCOPE(server_->deposit_site_);
        accepted = slot->channel->TryPushBatch(scratch_);
      }
      if (accepted > 0) {
        CountDelivered(slot, accepted);
      }
      // Unaccepted entries were moved into scratch_; put them back.
      for (size_t i = accepted; i < run; ++i) {
        conn->staged[i].entry = std::move(scratch_[i]);
      }
      conn->staged.erase(conn->staged.begin(),
                         conn->staged.begin() +
                             static_cast<std::ptrdiff_t>(accepted));
      if (accepted == run) {
        continue;  // whole run landed; next channel's run
      }
      if (slot->channel->closed()) {
        // Undeliverable forever: shed this channel's staged run.
        server_->staged_dropped_.fetch_add(run - accepted);
        conn->staged.erase(conn->staged.begin(),
                           conn->staged.begin() +
                               static_cast<std::ptrdiff_t>(run - accepted));
        conn->fatal = true;
        continue;
      }
      return;  // still full; stay backlogged until the next space wakeup
    }
  }

  /// Post-drain bookkeeping: backlog membership, resume, destruction.
  void SettleBacklog(Connection* conn) {
    if (!conn->staged.empty()) {
      if (!conn->backlogged) {
        conn->backlogged = true;
        backlog_.push_back(conn);
      }
      return;
    }
    if (conn->paused && !conn->done) {
      ResumeConn(conn);
    }
  }

  void DrainBacklog() {
    std::vector<Connection*> work;
    work.swap(backlog_);
    for (Connection* conn : work) {
      conn->backlogged = false;
      TryDrainStaged(conn);
      SettleBacklog(conn);
      if (conn->done && conn->staged.empty()) {
        DestroyConn(conn);
      }
    }
  }

  void PauseConn(Connection* conn) {
    if (conn->paused || conn->done) {
      return;
    }
    epoll_event ev{};
    ev.events = 0;  // stay registered, report nothing: TCP pushes back
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->paused = true;
    conn->pause_start_us = SteadyMicros();
    server_->pauses_.fetch_add(1);
    server_->paused_now_.fetch_add(1);
    if (server_->c_pauses_ != nullptr) {
      server_->c_pauses_->Add(1);
    }
    if (server_->g_paused_ != nullptr) {
      server_->g_paused_->Add(1);
    }
  }

  void EndPauseBookkeeping(Connection* conn) {
    const int64_t dur = SteadyMicros() - conn->pause_start_us;
    conn->paused = false;
    server_->paused_now_.fetch_add(-1);
    server_->paused_us_.fetch_add(static_cast<uint64_t>(std::max<int64_t>(dur, 0)));
    if (server_->g_paused_ != nullptr) {
      server_->g_paused_->Add(-1);
    }
    if (server_->h_pause_us_ != nullptr) {
      server_->h_pause_us_->Record(dur);
    }
  }

  void ResumeConn(Connection* conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    EndPauseBookkeeping(conn);
  }

  /// The stream is over (clean EOF or fatal error): flush decoders, leave
  /// epoll, and either destroy now or park until staging drains. The fd
  /// stays open until destruction so its number cannot be recycled into a
  /// new connection while this one lingers in the backlog.
  void FinishReads(Connection* conn) {
    if (conn->done) {
      return;
    }
    if (conn->eof && !conn->fatal) {
      if (conn->protocol == WireProtocol::kLine) {
        // A client that closes without a trailing newline still delivers
        // its final tuple.
        conn->line_decoder.Finish([this, conn](std::string_view line) {
          if (server_->default_slot_ != nullptr) {
            HandleTuple(conn, server_->default_slot_, line);
          }
        });
      } else if (conn->protocol == WireProtocol::kBinary &&
                 conn->frame_decoder.mid_frame()) {
        server_->frame_errors_.fetch_add(1);
        if (server_->c_frame_errors_ != nullptr) {
          server_->c_frame_errors_->Add(1);
        }
        server_->LogAccess("frame_error", conn->fd, "truncated frame at EOF");
      }
    }
    conn->done = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    if (conn->paused) {
      EndPauseBookkeeping(conn);
    }
    TryDrainStaged(conn);
    SettleBacklog(conn);
    if (conn->staged.empty()) {
      DestroyConn(conn);
    }
  }

  void DestroyConn(Connection* conn) {
    if (conn->backlogged) {
      backlog_.erase(std::remove(backlog_.begin(), backlog_.end(), conn),
                     backlog_.end());
    }
    server_->LogAccess("close", conn->fd, conn->peer);
    const int fd = conn->fd;
    ::close(fd);
    server_->OnConnectionGone();
    conns_.erase(fd);  // destroys *conn
  }

  /// Shard-thread epilogue on shutdown: best-effort final drain, then shed
  /// and account for whatever no channel would take.
  void ShutdownAll() {
    {
      ScopedLock lock(mutex_);
      for (int fd : pending_fds_) {
        ::close(fd);
        server_->OnConnectionGone();
      }
      pending_fds_.clear();
    }
    for (auto& [fd, conn] : conns_) {
      TryDrainStaged(conn.get());
      if (!conn->staged.empty()) {
        server_->staged_dropped_.fetch_add(conn->staged.size());
      }
      if (conn->paused) {
        EndPauseBookkeeping(conn.get());
      }
      server_->LogAccess("close", fd, conn->peer);
      ::close(fd);
      server_->OnConnectionGone();
    }
    conns_.clear();
    backlog_.clear();
  }

  IngestServer* server_;
  [[maybe_unused]] int index_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;

  OrderedMutex mutex_{"net::IngestServer::Shard::mutex"};
  std::vector<int> pending_fds_ CWF_GUARDED_BY(mutex_);

  // Shard-thread-only state below (no lock by design).
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::vector<Connection*> backlog_;
  std::vector<TraceEntry> scratch_;
  std::vector<char> read_buf_;
};

// ---------------------------------------------------------------------------
// IngestServer
// ---------------------------------------------------------------------------

IngestServer::IngestServer(Clock* clock, Options options)
    : clock_(clock), options_(std::move(options)) {
  CWF_CHECK(clock_ != nullptr);
  if (options_.shards < 1) {
    options_.shards = 1;
  }
  if (options_.staging_limit == 0) {
    options_.staging_limit = 1;
  }
}

IngestServer::~IngestServer() { Stop(); }

void IngestServer::AddChannel(uint16_t channel_id, PushChannelPtr channel,
                              std::string name) {
  CWF_CHECK_MSG(!running_.load(), "AddChannel after Start");
  CWF_CHECK(channel != nullptr);
  CWF_CHECK_MSG(FindChannel(channel_id) == nullptr,
                "duplicate ingest channel id " << channel_id);
  auto slot = std::make_unique<ChannelSlot>();
  slot->id = channel_id;
  slot->name = name.empty() ? "ch" + std::to_string(channel_id)
                            : std::move(name);
  slot->channel = std::move(channel);
  channels_.push_back(std::move(slot));
}

IngestServer::ChannelSlot* IngestServer::FindChannel(uint16_t channel_id) {
  for (const auto& slot : channels_) {
    if (slot->id == channel_id) {
      return slot.get();
    }
  }
  return nullptr;
}

uint64_t IngestServer::channel_tuples(uint16_t channel_id) const {
  for (const auto& slot : channels_) {
    if (slot->id == channel_id) {
      return slot->tuples.load();
    }
  }
  return 0;
}

void IngestServer::OnConnectionGone() {
  live_.fetch_add(-1);
  if (g_connections_ != nullptr) {
    g_connections_->Add(-1);
  }
}

void IngestServer::ResolveInstruments() {
#ifdef CWF_OBS_ENABLED
  if (!obs::MetricsEnabled()) {
    return;
  }
  auto& reg = obs::MetricsRegistry::Global();
  reg.SetHelp("cwf_ingest_connections", "Live ingest connections");
  g_connections_ = reg.GetGauge("cwf_ingest_connections");
  reg.SetHelp("cwf_ingest_accepted_total", "Ingest connections accepted");
  c_accepted_ = reg.GetCounter("cwf_ingest_accepted_total");
  reg.SetHelp("cwf_ingest_rejected_total",
              "Ingest connections refused at the max_connections bound");
  c_rejected_ = reg.GetCounter("cwf_ingest_rejected_total");
  reg.SetHelp("cwf_ingest_bytes_total", "Bytes read off ingest sockets");
  c_bytes_ = reg.GetCounter("cwf_ingest_bytes_total");
  reg.SetHelp("cwf_ingest_parse_errors_total",
              "Ingest tuples dropped as unparseable");
  c_parse_errors_ = reg.GetCounter("cwf_ingest_parse_errors_total");
  reg.SetHelp("cwf_ingest_schema_rejects_total",
              "Ingest tuples rejected by the channel schema boundary check");
  c_schema_rejects_ = reg.GetCounter("cwf_ingest_schema_rejects_total");
  reg.SetHelp("cwf_ingest_frame_errors_total",
              "Wire-protocol violations, binary frames or oversized lines "
              "(connection dropped)");
  c_frame_errors_ = reg.GetCounter("cwf_ingest_frame_errors_total");
  reg.SetHelp("cwf_ingest_backpressure_paused",
              "Connections currently paused on channel backpressure");
  g_paused_ = reg.GetGauge("cwf_ingest_backpressure_paused");
  reg.SetHelp("cwf_ingest_backpressure_pauses_total",
              "Backpressure pauses (fd removed from read interest)");
  c_pauses_ = reg.GetCounter("cwf_ingest_backpressure_pauses_total");
  reg.SetHelp("cwf_ingest_backpressure_pause_us",
              "Microseconds a connection spent paused, per pause");
  h_pause_us_ = reg.GetHistogram("cwf_ingest_backpressure_pause_us");
  reg.SetHelp("cwf_ingest_tuples_total",
              "Tuples delivered into workflow channels, per channel");
  for (const auto& slot : channels_) {
    slot->c_tuples =
        reg.GetCounter("cwf_ingest_tuples_total", "channel", slot->name);
  }
  decode_site_ = obs::Profiler::Global().Site(
      "<ingest>", obs::ProfilePhase::kSerialization);
  deposit_site_ = obs::Profiler::Global().Site(
      "<ingest>", obs::ProfilePhase::kReceiverPut);
#endif
}

Status IngestServer::Start(uint16_t port) {
  if (running_.load()) {
    return Status::FailedPrecondition("ingest server already started");
  }
  if (channels_.empty()) {
    return Status::InvalidArgument("no channels registered");
  }
  default_slot_ = FindChannel(0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 512) < 0) {
    ::close(fd);
    return Status::Internal("listen() failed: " +
                            std::string(std::strerror(errno)));
  }

  ResolveInstruments();
  if (!options_.access_log_path.empty()) {
    access_log_ = std::make_unique<BackgroundWriter>();
    const Status st = access_log_->StartFile(options_.access_log_path);
    if (!st.ok()) {
      ::close(fd);
      access_log_.reset();
      return st;
    }
  }

  stopping_ = false;
  shards_.clear();
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_shared<Shard>(this, i));
    const Status st = shards_.back()->Start();
    if (!st.ok()) {
      ::close(fd);
      stopping_ = true;
      for (auto& shard : shards_) {
        shard->Wake();
      }
      shards_.clear();  // dtors join
      if (access_log_) {
        access_log_->Stop();
      }
      return st;
    }
  }
  // The consumer side (PopArrived / Close) fires these; the callback must
  // be cheap — it is one eventfd write per shard. The callback captures a
  // snapshot of the shard vector by value (not `this->shards_`): channels
  // invoke their copy of the callback outside the channel lock, so an
  // invocation can still be running after Stop() cleared the callbacks,
  // and must not race a restart's shards_.clear().
  const std::vector<std::shared_ptr<Shard>> wake_shards = shards_;
  for (const auto& slot : channels_) {
    slot->channel->SetSpaceAvailableCallback([wake_shards] {
      for (const auto& shard : wake_shards) {
        shard->Wake();
      }
    });
  }

  listen_fd_.store(fd);
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void IngestServer::AcceptLoop() {
  size_t next_shard = 0;
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) {
      return;  // Stop() already detached the listening socket
    }
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int client =
        ::accept(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (client < 0) {
      if (stopping_.load()) {
        return;
      }
      if (errno != EINTR) {
        // Persistent errors (EMFILE/ENFILE when fds run out — likely
        // exactly under a connection storm) must not busy-spin the
        // acceptor; back off briefly before retrying.
        LogAccess("accept_error", -1, std::strerror(errno));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      continue;
    }
    if (stopping_.load()) {
      ::close(client);
      return;
    }
    if (live_.load() >= static_cast<int64_t>(options_.max_connections)) {
      rejected_.fetch_add(1);
      if (c_rejected_ != nullptr) {
        c_rejected_->Add(1);
      }
      LogAccess("reject", client, FormatPeer(peer));
      ::close(client);
      continue;
    }
    if (!SetNonBlocking(client)) {
      ::close(client);
      continue;
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1);
    live_.fetch_add(1);
    if (c_accepted_ != nullptr) {
      c_accepted_->Add(1);
    }
    if (g_connections_ != nullptr) {
      g_connections_->Add(1);
    }
    LogAccess("accept", client, FormatPeer(peer));
    shards_[next_shard]->Adopt(client);
    next_shard = (next_shard + 1) % shards_.size();
  }
}

void IngestServer::LogAccess(std::string_view event, int fd,
                             std::string_view detail) {
  if (!access_log_) {
    return;
  }
  std::string line;
  line.reserve(64 + detail.size());
  line += "ts_us=";
  line += std::to_string(SteadyMicros());
  line += " event=";
  line += event;
  line += " fd=";
  line += std::to_string(fd);
  if (!detail.empty()) {
    line += " detail=";
    line += detail;
  }
  access_log_->AppendLine(line);
}

void IngestServer::Stop() {
  stopping_.store(true);
  // Channel callbacks reference the shards; detach them before teardown.
  for (const auto& slot : channels_) {
    slot->channel->SetSpaceAvailableCallback(nullptr);
  }
  // fd discipline: shutdown() wakes the blocked accept, join, THEN close —
  // closing first would let the kernel recycle the number under the
  // acceptor's feet.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
  for (const auto& shard : shards_) {
    shard->Wake();
  }
  for (const auto& shard : shards_) {
    shard->Join();
  }
  // Shard objects may outlive Stop(): a space-available callback taken out
  // of the channel lock just before the callbacks were cleared may still
  // be running, but it iterates its own shared_ptr snapshot (see Start),
  // so a restart's shards_.clear() cannot pull the vector out from under
  // it — Wake() on a joined shard is a harmless eventfd write.
  if (options_.close_channels_on_stop) {
    for (const auto& slot : channels_) {
      slot->channel->Close();
    }
  }
  if (access_log_) {
    access_log_->Stop();
  }
  running_ = false;
}

}  // namespace cwf::net

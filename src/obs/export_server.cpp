#include "obs/export_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace cwf::obs {

std::string RenderTopTsv(const MetricsRegistry& registry) {
  // The registry creates instruments on lookup, so only label values that
  // already exist are queried (LabelValues never creates).
  MetricsRegistry& reg = const_cast<MetricsRegistry&>(registry);
  std::ostringstream out;
  out << "# ts_us " << HostMonotonicMicros() << "\n";
  out << "actor\tfirings\tcost_mean_us\tconsumed\temitted\tarrived\t"
         "queue_hwm\tblocked_us\tdecisions\tdeferrals\n";
  const std::vector<std::string> ports =
      reg.LabelValues("cwf_receiver_blocked_us_total");
  for (const std::string& actor : reg.LabelValues("cwf_actor_firings_total")) {
    const uint64_t firings =
        reg.GetCounter("cwf_actor_firings_total", "actor", actor)->Value();
    const double cost_mean =
        reg.GetHistogram("cwf_actor_cost_us", "actor", actor)->Mean();
    const uint64_t consumed =
        reg.GetCounter("cwf_actor_events_consumed_total", "actor", actor)
            ->Value();
    const uint64_t emitted =
        reg.GetCounter("cwf_actor_events_emitted_total", "actor", actor)
            ->Value();
    const uint64_t arrived =
        reg.GetCounter("cwf_actor_events_arrived_total", "actor", actor)
            ->Value();
    // Queue depth and backpressure blocked time are tracked per channel;
    // attribute every "Actor.port" channel of this actor (HWM = the largest
    // channel depth gauge maximum).
    int64_t hwm = 0;
    uint64_t blocked = 0;
    const std::string prefix = actor + ".";
    for (const std::string& port : ports) {
      if (port.rfind(prefix, 0) == 0) {
        hwm = std::max(
            hwm, reg.GetGauge("cwf_receiver_depth", "port", port)->Max());
        blocked +=
            reg.GetCounter("cwf_receiver_blocked_us_total", "port", port)
                ->Value();
      }
    }
    const uint64_t decisions =
        reg.GetCounter("cwf_sched_decisions_total", "actor", actor)->Value();
    const uint64_t deferrals =
        reg.GetCounter("cwf_backpressure_deferrals_total", "actor", actor)
            ->Value();
    out << actor << '\t' << firings << '\t' << cost_mean << '\t' << consumed
        << '\t' << emitted << '\t' << arrived << '\t' << hwm << '\t'
        << blocked << '\t' << decisions << '\t' << deferrals << "\n";
  }
  // Ingest-server rows ride along as '#' comment lines so the 10-field
  // actor-row contract above stays untouched (older parsers that skip
  // comments keep working). Gated on the per-channel tuple counter: it
  // only exists once an IngestServer resolved its instruments, so a
  // workflow without network ingest emits no extra lines.
  const std::vector<std::string> ingest_channels =
      reg.LabelValues("cwf_ingest_tuples_total");
  if (!ingest_channels.empty()) {
    out << "# ingest live="
        << reg.GetGauge("cwf_ingest_connections")->Value()
        << " accepted=" << reg.GetCounter("cwf_ingest_accepted_total")->Value()
        << " rejected=" << reg.GetCounter("cwf_ingest_rejected_total")->Value()
        << " paused=" << reg.GetGauge("cwf_ingest_backpressure_paused")->Value()
        << " pauses="
        << reg.GetCounter("cwf_ingest_backpressure_pauses_total")->Value()
        << " bytes=" << reg.GetCounter("cwf_ingest_bytes_total")->Value()
        << " parse_errors="
        << reg.GetCounter("cwf_ingest_parse_errors_total")->Value()
        << " schema_rejects="
        << reg.GetCounter("cwf_ingest_schema_rejects_total")->Value()
        << " frame_errors="
        << reg.GetCounter("cwf_ingest_frame_errors_total")->Value() << "\n";
    for (const std::string& channel : ingest_channels) {
      out << "# ingest_channel " << channel << " tuples="
          << reg.GetCounter("cwf_ingest_tuples_total", "channel", channel)
                 ->Value()
          << "\n";
    }
  }
  return out.str();
}

namespace {

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

}  // namespace

MetricsServer::MetricsServer(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {}

MetricsServer::~MetricsServer() { Stop(); }

Status MetricsServer::Start(uint16_t port) {
  if (listen_fd_.load() >= 0) {
    return Status::FailedPrecondition("metrics server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
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
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return Status::Internal("listen() failed: " +
                            std::string(std::strerror(errno)));
  }
  stopping_ = false;
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsServer::AcceptLoop() {
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) {
      return;
    }
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load()) {
        return;
      }
      continue;
    }
    ServeClient(client);
    ::close(client);
  }
}

void MetricsServer::ServeClient(int client_fd) {
  // Read up to the end of the request line; scrapers send tiny requests so
  // a bounded read loop suffices.
  std::string request;
  char buf[1024];
  while (request.find('\n') == std::string::npos && request.size() < 8192) {
    const ssize_t n = ::read(client_fd, buf, sizeof(buf));
    if (n <= 0) {
      return;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  std::string path = "/";
  {
    // "GET <path> HTTP/1.x"
    const size_t sp1 = request.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      path = request.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  const std::string response = HandleRequest(path);
  size_t off = 0;
  while (off < response.size()) {
    const ssize_t n =
        ::write(client_fd, response.data() + off, response.size() - off);
    if (n <= 0) {
      return;
    }
    off += static_cast<size_t>(n);
  }
  requests_.fetch_add(1);
}

std::string MetricsServer::HandleRequest(const std::string& path) const {
#ifdef CWF_OBS_ENABLED
  // Exposition rendering is itself host time; attribute it so a scrape-heavy
  // run shows up in its own decomposition instead of inflating other phases.
  static const ProfileSite* serialize_site =
      Profiler::Global().Site("<export>", ProfilePhase::kSerialization);
#endif
  CWF_PROFILE_SCOPE(serialize_site);
  if (path == "/metrics" || path == "/metrics.json") {
    // cwf_wave_latency_us is fed by the trace replay; bring it up to date.
    GlobalTracer().Replay();
  }
  if (path == "/metrics") {
    return HttpResponse("200 OK", "text/plain; version=0.0.4",
                        registry_->RenderPrometheus());
  }
  if (path == "/metrics.json") {
    return HttpResponse("200 OK", "application/json",
                        registry_->RenderJson());
  }
  if (path == "/top") {
    return HttpResponse("200 OK", "text/tab-separated-values",
                        RenderTopTsv(*registry_));
  }
  if (path == "/trace.json") {
    return HttpResponse("200 OK", "application/json",
                        GlobalTracer().RenderChromeJson());
  }
  if (path == "/profile") {
    // Phase-decomposition TSV followed by the critical-path section; rows
    // of the first part have exactly 5 tab-separated columns (cwf_top
    // --profile keys on that).
    return HttpResponse(
        "200 OK", "text/tab-separated-values",
        RenderProfileText(SnapshotProfile(*registry_)) + "\n" +
            RenderCriticalPathText(ComputeCriticalPaths(GlobalTracer())));
  }
  if (path == "/profile.json") {
    return HttpResponse(
        "200 OK", "application/json",
        "{\"profile\":" + RenderProfileJson(SnapshotProfile(*registry_)) +
            ",\"critical_path\":" +
            RenderCriticalPathJson(ComputeCriticalPaths(GlobalTracer())) +
            "}");
  }
  if (path == "/") {
    return HttpResponse("200 OK", "text/plain",
                        "confluence metrics server\n"
                        "endpoints: /metrics /metrics.json /top /trace.json "
                        "/profile /profile.json\n");
  }
  return HttpResponse("404 Not Found", "text/plain", "not found\n");
}

void MetricsServer::Stop() {
  stopping_ = true;
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    // shutdown() wakes the blocked accept(); the fd is closed only after
    // the accept thread joined (fd-recycling hazard, see IngestServer::Stop).
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
}

}  // namespace cwf::obs

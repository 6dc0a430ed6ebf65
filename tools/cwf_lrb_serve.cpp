// cwf_lrb_serve: run the Linear Road benchmark with the observability
// stack attached — metrics server, optional wave tracing, profiling,
// canonical bench JSON.
//
// Starts an obs::MetricsServer, prints the bound port, then runs the LRB
// experiment (repeatedly with --repeat, so cwf_top has changing counters
// to watch). After the run it can write the canonical BENCH_*.json
// (--bench FILE, bench/harness.h schema, including the profiler's
// host-time decomposition when profiling is on), the Chrome trace-event
// JSON for Perfetto (--trace FILE, implies tracing on), and a self-scrape
// of its own /metrics endpoint (--scrape-out FILE) that exercises the
// HTTP path end-to-end for CI. --profile enables the host-time profiler
// and prints the per-(actor, phase) decomposition after the run;
// --profile-out FILE writes that report to a file as well. Profiling does
// not turn tracing on: the report adds the top critical-path contributors
// per query type only when tracing is on too (--trace FILE), because that
// attribution walks the wave-lineage trace. --serve-ms keeps the server up
// after the run for interactive cwf_top sessions.
//
// With --listen the tool switches from the virtual-clock generator to a
// live network front door: an epoll IngestServer (src/net/) feeds position
// reports from real TCP clients into a bounded PushChannel driving the LRB
// workflow under the OS-thread PNCWF director on the real clock. Both the
// newline line protocol and the binary frame protocol are accepted; the
// bound ingest port is printed on stdout for harnesses to scrape. The run
// ends after --duration-s wall seconds (the server stops, the feed channel
// closes, the workflow drains).
//
// Usage:
//   cwf_lrb_serve [--port N] [--scheduler QBS|RR|RB|FIFO|EDF|PNCWF]
//                 [--duration-s S] [--repeat N] [--trace FILE]
//                 [--bench FILE] [--scrape-out FILE] [--serve-ms MS]
//                 [--profile] [--profile-out FILE]
//                 [--listen PORT] [--clients-max N] [--shards N]
//                 [--feed-capacity N] [--access-log FILE]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/clock.h"
#include "directors/pncwf_director.h"
#include "harness.h"
#include "lrb/harness.h"
#include "lrb/types.h"
#include "net/ingest_server.h"
#include "obs/export_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace_buffer.h"
#include "stream/push_channel.h"

namespace {

struct CliOptions {
  int port = 0;  // 0 = ephemeral
  std::string scheduler = "QBS";
  double duration_s = 120;
  int repeat = 1;
  std::string trace_path;
  std::string bench_path;
  std::string scrape_path;
  std::string profile_path;
  int serve_ms = 0;
  bool profile = false;
  bool listen = false;
  int listen_port = 0;  // 0 = ephemeral
  int clients_max = 8192;
  int shards = 2;
  int feed_capacity = 4096;
  std::string access_log_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--scheduler QBS|RR|RB|FIFO|EDF|PNCWF] "
               "[--duration-s S] [--repeat N] [--trace FILE] [--bench FILE] "
               "[--scrape-out FILE] [--serve-ms MS] [--profile] "
               "[--profile-out FILE] [--listen PORT] [--clients-max N] "
               "[--shards N] [--feed-capacity N] [--access-log FILE]\n",
               argv0);
  return 2;
}

bool ParseScheduler(const std::string& name, cwf::lrb::SchedulerKind* kind) {
  using cwf::lrb::SchedulerKind;
  static const struct {
    const char* name;
    SchedulerKind kind;
  } kTable[] = {
      {"QBS", SchedulerKind::kQBS},   {"RR", SchedulerKind::kRR},
      {"RB", SchedulerKind::kRB},     {"FIFO", SchedulerKind::kFIFO},
      {"EDF", SchedulerKind::kEDF},   {"PNCWF", SchedulerKind::kPNCWF},
  };
  for (const auto& entry : kTable) {
    if (name == entry.name) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

/// Fetches this process's own /metrics over loopback and writes the body to
/// `path` — proves the full TCP exposition path, not just the renderer.
bool SelfScrape(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::write(fd, request, sizeof(request) - 1) !=
      static_cast<ssize_t>(sizeof(request) - 1)) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos ||
      response.rfind("HTTP/1.0 200", 0) != 0) {
    return false;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << response.substr(header_end + 4);
  return static_cast<bool>(out);
}

/// Live network mode: IngestServer -> bounded PushChannel -> LRB workflow
/// under the OS-thread PNCWF director on the real clock. Returns the exit
/// code. Runs for `options.duration_s` wall seconds, then stops the ingest
/// server — which closes the feed channel, so the workflow drains and
/// Run() returns.
int RunListenMode(const CliOptions& options) {
  cwf::RealClock clock;
  auto feed = std::make_shared<cwf::PushChannel>();
  feed->SetCapacity(static_cast<size_t>(options.feed_capacity));
  // Non-fatal boundary check: malformed client tuples land in
  // cwf_ingest_schema_rejects_total instead of reaching the workflow.
  feed->SetExpectedSchema(cwf::lrb::PositionReportType(), "lrb_feed");

  auto app_result = cwf::lrb::BuildLRBApplication(feed);
  if (!app_result.ok()) {
    std::fprintf(stderr, "cwf_lrb_serve: build failed: %s\n",
                 app_result.status().ToString().c_str());
    return 1;
  }
  cwf::lrb::LRBApplication app = std::move(app_result).value();

  cwf::PNCWFOptions pncwf;
  pncwf.mode = cwf::PNCWFMode::kOsThreads;
  cwf::PNCWFDirector director(pncwf);
  const cwf::Status init =
      director.Initialize(app.workflow.get(), &clock, nullptr);
  if (!init.ok()) {
    std::fprintf(stderr, "cwf_lrb_serve: director init failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }

  cwf::net::IngestServer::Options net;
  net.shards = options.shards;
  net.max_connections = static_cast<size_t>(options.clients_max);
  net.access_log_path = options.access_log_path;
  cwf::net::IngestServer ingest(&clock, net);
  ingest.AddChannel(0, feed, "lrb");
  const cwf::Status started =
      ingest.Start(static_cast<uint16_t>(options.listen_port));
  if (!started.ok()) {
    std::fprintf(stderr, "cwf_lrb_serve: ingest start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("ingest listening on 127.0.0.1:%u\n", ingest.port());
  std::fflush(stdout);

  const auto host_start = std::chrono::steady_clock::now();
  std::thread stopper([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.duration_s));
    ingest.Stop();  // closes the feed so the workflow drains
  });
  // Finite horizon: the LRB time windows hold deadlines up to 60 real
  // seconds in the future, so a Timestamp::Max() run would idle until the
  // last window expires after the feed closes. Two seconds of slack past
  // the feed close drains the in-flight tuples.
  const cwf::Timestamp until =
      clock.Now() +
      cwf::Seconds(static_cast<int64_t>(options.duration_s) + 2);
  const cwf::Status run = director.Run(until);
  stopper.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  if (!run.ok()) {
    std::fprintf(stderr, "cwf_lrb_serve: director status: %s\n",
                 run.ToString().c_str());
  }

  const uint64_t tuples = ingest.tuples_received();
  std::printf(
      "live run: %llu tuples from %llu connections (%llu rejected) in "
      "%.1fs; %llu backpressure pauses, %llu parse errors, %llu schema "
      "rejects\n",
      static_cast<unsigned long long>(tuples),
      static_cast<unsigned long long>(ingest.connections_accepted()),
      static_cast<unsigned long long>(ingest.connections_rejected()), wall_s,
      static_cast<unsigned long long>(ingest.backpressure_pauses()),
      static_cast<unsigned long long>(ingest.parse_errors()),
      static_cast<unsigned long long>(ingest.schema_rejects()));
  std::fflush(stdout);

  int exit_code = 0;
  if (!options.bench_path.empty()) {
    cwf::bench::BenchResult bench;
    bench.bench = "lrb_listen";
    bench.wall_s = wall_s;
    bench.throughput_per_s = wall_s > 0 ? tuples / wall_s : 0;
    bench.config["duration_s"] = std::to_string(options.duration_s);
    bench.config["shards"] = std::to_string(options.shards);
    bench.config["clients_max"] = std::to_string(options.clients_max);
    bench.config["feed_capacity"] = std::to_string(options.feed_capacity);
    bench.metrics["tuples_received"] = static_cast<double>(tuples);
    bench.metrics["connections_accepted"] =
        static_cast<double>(ingest.connections_accepted());
    bench.metrics["connections_rejected"] =
        static_cast<double>(ingest.connections_rejected());
    bench.metrics["backpressure_pauses"] =
        static_cast<double>(ingest.backpressure_pauses());
    bench.metrics["parse_errors"] = static_cast<double>(ingest.parse_errors());
    bench.metrics["schema_rejects"] =
        static_cast<double>(ingest.schema_rejects());
    if (options.profile) {
      bench.host_phase_us =
          cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global())
              .PhaseTotalsUs();
    }
    const cwf::Status s =
        cwf::bench::WriteBenchJson(bench, options.bench_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cwf_lrb_serve: bench write failed: %s\n",
                   s.ToString().c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

/// The combined profiling report: per-(actor, phase) self-time
/// decomposition followed by the critical-path attribution, which needs the
/// wave-lineage trace and so is rendered only when tracing is on.
std::string RenderProfileReport() {
  const cwf::obs::ProfileSnapshot snapshot =
      cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global());
  std::string report = cwf::obs::RenderProfileText(snapshot) + "\n";
  if (!cwf::obs::TracingEnabled()) {
    return report +
           "# critical paths not computed: tracing is off (add --trace FILE)\n";
  }
  return report + cwf::obs::RenderCriticalPathText(
                      cwf::obs::ComputeCriticalPaths(cwf::obs::GlobalTracer()));
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--scheduler" && i + 1 < argc) {
      options.scheduler = argv[++i];
    } else if (arg == "--duration-s" && i + 1 < argc) {
      options.duration_s = std::atof(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      options.repeat = std::atoi(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (arg == "--bench" && i + 1 < argc) {
      options.bench_path = argv[++i];
    } else if (arg == "--scrape-out" && i + 1 < argc) {
      options.scrape_path = argv[++i];
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      options.serve_ms = std::atoi(argv[++i]);
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--profile-out" && i + 1 < argc) {
      options.profile = true;
      options.profile_path = argv[++i];
    } else if (arg == "--listen" && i + 1 < argc) {
      options.listen = true;
      options.listen_port = std::atoi(argv[++i]);
    } else if (arg == "--clients-max" && i + 1 < argc) {
      options.clients_max = std::atoi(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      options.shards = std::atoi(argv[++i]);
    } else if (arg == "--feed-capacity" && i + 1 < argc) {
      options.feed_capacity = std::atoi(argv[++i]);
    } else if (arg == "--access-log" && i + 1 < argc) {
      options.access_log_path = argv[++i];
    } else if (arg == "--no-metrics") {
      // Runtime-disable the metrics sinks (the compiled-out comparison
      // point for the overhead measurement in docs/OBSERVABILITY.md).
      cwf::obs::SetMetricsEnabled(false);
    } else {
      return Usage(argv[0]);
    }
  }
  cwf::lrb::ExperimentOptions experiment;
  if (!ParseScheduler(options.scheduler, &experiment.scheduler) ||
      options.port < 0 || options.port > 65535 || options.repeat < 1 ||
      options.duration_s <= 0 || options.listen_port < 0 ||
      options.listen_port > 65535 || options.clients_max < 1 ||
      options.shards < 1 || options.feed_capacity < 1) {
    return Usage(argv[0]);
  }
  experiment.workload.duration = cwf::Seconds(
      static_cast<int64_t>(options.duration_s));

  if (!options.trace_path.empty()) {
    cwf::obs::SetTracingEnabled(true);
  }
  if (options.profile) {
    cwf::obs::SetProfilingEnabled(true);
  }

  cwf::obs::MetricsServer server;
  const cwf::Status started =
      server.Start(static_cast<uint16_t>(options.port));
  if (!started.ok()) {
    std::fprintf(stderr, "cwf_lrb_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving metrics on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  int exit_code = 0;
  if (options.listen) {
    exit_code = RunListenMode(options);
  } else {
    cwf::lrb::ExperimentResult last;
    double last_wall_s = 0;
    for (int run = 0; run < options.repeat; ++run) {
      const auto host_start = std::chrono::steady_clock::now();
      auto result = cwf::lrb::RunLRBExperiment(experiment);
      last_wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_start)
              .count();
      if (!result.ok()) {
        std::fprintf(stderr, "cwf_lrb_serve: run %d failed: %s\n", run,
                     result.status().ToString().c_str());
        return 1;
      }
      last = std::move(result).value();
      if (!last.status.ok()) {
        std::fprintf(stderr, "cwf_lrb_serve: director status: %s\n",
                     last.status.ToString().c_str());
      }
      std::printf("run %d/%d: %zu toll notifications, avg response %.3fs\n",
                  run + 1, options.repeat, last.toll_notifications,
                  last.toll_avg_response_s);
      std::fflush(stdout);
    }

    if (!options.bench_path.empty()) {
      cwf::bench::BenchResult bench = cwf::bench::FromLRB(
          last, "lrb_" + options.scheduler, last_wall_s);
      bench.config["duration_s"] = std::to_string(options.duration_s);
      if (options.profile) {
        bench.host_phase_us =
            cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global())
                .PhaseTotalsUs();
      }
      const cwf::Status s =
          cwf::bench::WriteBenchJson(bench, options.bench_path);
      if (!s.ok()) {
        std::fprintf(stderr, "cwf_lrb_serve: bench write failed: %s\n",
                     s.ToString().c_str());
        exit_code = 1;
      }
    }
  }
  if (options.profile) {
    const std::string report = RenderProfileReport();
    std::printf("%s", report.c_str());
    std::fflush(stdout);
    if (!options.profile_path.empty()) {
      std::ofstream out(options.profile_path, std::ios::trunc);
      if (!out || !(out << report)) {
        std::fprintf(stderr, "cwf_lrb_serve: profile write failed: %s\n",
                     options.profile_path.c_str());
        exit_code = 1;
      }
    }
  }
  if (!options.trace_path.empty()) {
    const cwf::Status s =
        cwf::obs::GlobalTracer().WriteChromeJson(options.trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cwf_lrb_serve: trace write failed: %s\n",
                   s.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.scrape_path.empty() &&
      !SelfScrape(server.port(), options.scrape_path)) {
    std::fprintf(stderr, "cwf_lrb_serve: self-scrape failed\n");
    exit_code = 1;
  }
  if (options.serve_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options.serve_ms));
  }
  server.Stop();
  return exit_code;
}

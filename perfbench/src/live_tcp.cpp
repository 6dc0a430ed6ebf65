// live_tcp: the real-time path. An open-loop sender in this process replays
// the seeded Linear Road trace as binary frames over loopback TCP into
// IngestServer, which feeds a bounded PushChannel driving the workflow under
// the OS-thread PNCWF director.
//
// Engine time runs kTimeScale times faster than the wall clock, so the
// 60-second LRB windows close and tolls flow within a run of a few tens of
// seconds. The trace is generated at kRate / kTimeScale reports per engine
// second and sent at kRate frames per wall second, so every report's own
// `time` field agrees with the engine time it arrives at. Latencies read
// from the engine are divided by kTimeScale to give wall milliseconds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <optional>
#include <thread>

#include "bench/harness.h"
#include "core/clock.h"
#include "directors/pncwf_director.h"
#include "lrb/generator.h"
#include "lrb/types.h"
#include "lrb/workflow_builder.h"
#include "net/frame.h"
#include "net/ingest_server.h"
#include "obs/profile.h"
#include "workloads.h"

namespace cwf::perfbench {
namespace {

constexpr double kRate = 150;       // frames per wall second
constexpr double kTimeScale = 4;    // engine seconds per wall second
constexpr int kConnections = 2;
constexpr int kShards = 2;
constexpr size_t kFeedCapacity = 4096;
constexpr size_t kWarmupSetups = 2;
constexpr size_t kSetupSamples = 101;
constexpr double kMinTracedLiveSeconds = 10;

/// A real clock whose engine time advances `scale` times faster than the
/// steady wall clock.
class ScaledRealClock : public Clock {
 public:
  explicit ScaledRealClock(double scale)
      : scale_(scale), start_(std::chrono::steady_clock::now()) {}

  Timestamp Now() const override {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return Timestamp(static_cast<int64_t>(
        std::chrono::duration<double, std::micro>(elapsed).count() * scale_));
  }
  bool is_virtual() const override { return false; }
  void AdvanceTo(Timestamp) override {
    CWF_CHECK_MSG(false, "cannot advance a real clock");
  }

 private:
  double scale_;
  std::chrono::steady_clock::time_point start_;
};

/// One application wired to a started ingest server.
struct Deployment {
  ScaledRealClock clock{kTimeScale};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  lrb::LRBApplication app;
  std::unique_ptr<PNCWFDirector> director;
  std::unique_ptr<net::IngestServer> ingest;
  double build_s = 0;
  double init_s = 0;
  double start_s = 0;

  Status SetUp() {
    feed->SetCapacity(kFeedCapacity);
    feed->SetExpectedSchema(lrb::PositionReportType(), "lrb_feed");
    ThreadCpuWatch build_watch;
    auto built = lrb::BuildLRBApplication(feed);
    build_s = build_watch.Seconds();
    CWF_RETURN_NOT_OK(built.status());
    app = std::move(built).value();

    PNCWFOptions options;
    options.mode = PNCWFMode::kOsThreads;
    director = std::make_unique<PNCWFDirector>(options);
    ThreadCpuWatch init_watch;
    CWF_RETURN_NOT_OK(director->Initialize(app.workflow.get(), &clock, nullptr));
    init_s = init_watch.Seconds();

    net::IngestServer::Options net_options;
    net_options.shards = kShards;
    ingest = std::make_unique<net::IngestServer>(&clock, net_options);
    ingest->AddChannel(0, feed, "lrb");
    ThreadCpuWatch start_watch;
    CWF_RETURN_NOT_OK(ingest->Start(0));
    start_s = start_watch.Seconds();
    return Status::OK();
  }

  double setup_s() const { return build_s + init_s + start_s; }
};

struct LiveRun {
  double setup_s = 0;
  double build_s = 0;
  double init_s = 0;
  double run_s = 0;
  double wrapup_s = 0;
  double cpu_s = 0;
  uint64_t firings = 0;
  uint64_t received = 0;
  uint64_t rejects = 0;
  uint64_t pauses = 0;
  SendResult send;
  std::vector<double> toll_ms;
  double rss_growth = 0;
  double feed_pending_max = 0;
  JsonObject outputs;
  std::string error;
};

/// One deployment fed for `seconds` of wall time. With `idle` the sender
/// sends nothing, which measures what the deployment burns with no traffic
/// (the OS-thread director's actors poll their inputs every millisecond).
/// With `sample_rss` an RssSampler runs during Run.
LiveRun RunLive(const Trace& trace, double seconds, bool idle, bool sample_rss,
                SpanRecorder* spans) {
  LiveRun live;
  Deployment d;
  const size_t setup_span = spans ? spans->Open("setup", "live") : 0;
  const Status setup = d.SetUp();
  if (spans) spans->Close(setup_span);
  live.build_s = d.build_s;
  live.init_s = d.init_s;
  live.setup_s = d.setup_s();
  if (!setup.ok()) {
    live.error = "set-up: " + setup.ToString();
    return live;
  }
  net::IngestServer& ingest = *d.ingest;
  PushChannel* feed = d.feed.get();
  std::optional<RssSampler> sampler;
  if (sample_rss) {
    sampler.emplace([&ingest, feed] {
      return static_cast<double>(ingest.tuples_received()) -
             static_cast<double>(feed->Pending());
    });
    sampler->set_watch([feed] { return static_cast<double>(feed->Pending()); });
  }

  const double cpu0 = ProcessCpuSeconds();
  if (sampler) sampler->Start();
  std::thread sender([&] {
    if (idle) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    } else {
      live.send = SendOpenLoop(trace, ingest.port(), kConnections, kRate, seconds);
    }
    const double wait_until = WallSeconds() + 3;
    while (ingest.tuples_received() < live.send.sent && WallSeconds() < wait_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ingest.Stop();  // closes the feed, so the workflow drains
  });
  const size_t run_span = spans ? spans->Open("directors.Run", "live") : 0;
  Stopwatch run_watch;
  // Two wall seconds past the sender's end drain the in-flight tuples.
  const Status run = d.director->Run(
      d.clock.Now() + Seconds((seconds + 2) * kTimeScale));
  live.run_s = run_watch.Seconds();
  if (spans) spans->Close(run_span);
  sender.join();
  if (sampler) sampler->Stop();
  const size_t wrapup_span = spans ? spans->Open("directors.Wrapup", "live") : 0;
  Stopwatch wrapup_watch;
  const Status wrapup = d.director->Wrapup();
  live.wrapup_s = wrapup_watch.Seconds();
  if (spans) spans->Close(wrapup_span);
  live.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!run.ok() || !wrapup.ok()) {
    live.error = "Run/Wrapup: " + (run.ok() ? wrapup : run).ToString();
    return live;
  }

  live.firings = d.director->total_firings();
  live.received = ingest.tuples_received();
  live.rejects = ingest.parse_errors() + ingest.schema_rejects() +
                    ingest.frame_errors() + ingest.unknown_channel_frames() +
                    ingest.staged_dropped();
  live.pauses = ingest.backpressure_pauses();
  for (const int64_t us : d.app.toll_series->ResponseMicros()) {
    live.toll_ms.push_back(static_cast<double>(us) / kTimeScale / 1e3);
  }
  if (sampler) {
    live.rss_growth = sampler->GrowthKbPerThousand();
    live.feed_pending_max = sampler->WatchMax();
  }
  live.outputs.Int("sent", static_cast<int64_t>(live.send.sent))
      .Int("received", static_cast<int64_t>(live.received))
      .Int("rejected", static_cast<int64_t>(live.rejects))
      .Int("sender_ok", live.send.ok ? 1 : 0)
      .Int("toll_notifications", static_cast<int64_t>(live.toll_ms.size()));
  return live;
}

double SetUpOnly() {
  Deployment d;
  if (!d.SetUp().ok()) {
    return 0;
  }
  d.ingest->Stop();
  (void)d.director->Wrapup();
  return d.setup_s();
}

int WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    off += static_cast<size_t>(n);
  }
  return 0;
}

}  // namespace

SendResult SendOpenLoop(const Trace& trace, uint16_t port, int connections,
                        double rate, double seconds) {
  SendResult result;
  const size_t n = std::min(trace.size(), static_cast<size_t>(rate * seconds));
  std::vector<std::string> frames;
  frames.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames.push_back(net::EncodeFrame(0, SerializeTokenBody(trace[i].token)));
  }
  std::vector<int> fds;
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const int one = 1;
    if (fd < 0 || ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) {
        ::close(fd);
      }
      result.ok = false;
      break;
    }
    fds.push_back(fd);
  }
  if (result.ok) {
    result.lag_ms.reserve(n);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      const auto due = t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (due - std::chrono::steady_clock::now() > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(due);
      }
      const auto now = std::chrono::steady_clock::now();
      result.lag_ms.push_back(
          std::max(0.0, std::chrono::duration<double, std::milli>(now - due).count()));
      if (WriteAll(fds[i % fds.size()], frames[i]) != 0) {
        result.ok = false;
        break;
      }
      ++result.sent;
    }
  }
  for (const int fd : fds) {
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
  return result;
}

Report RunLiveTcp(const RunOptions& options) {
  Report report;
  lrb::GeneratorOptions gen;
  gen.seed = options.seed;
  gen.initial_rate = kRate / kTimeScale;
  gen.max_rate = gen.initial_rate;
  gen.rate_slope_per_sec = 0;
  gen.duration = Seconds((std::max(options.seconds, kMinTracedLiveSeconds) + 2) * kTimeScale);
  lrb::Generator generator(gen);
  const Trace trace = generator.Generate();

  // Half the set-up samples are taken before the live runs and half after,
  // so that they span the run (the host's speed varies over seconds), each
  // half after a few unmeasured set-ups, so that every sample starts from
  // the same state rather than straight after a live run.
  std::vector<double> setups;
  const auto sample_setups = [&setups](size_t count) {
    for (size_t i = 0; i < kWarmupSetups; ++i) {
      SetUpOnly();
    }
    for (size_t i = 0; i < count; ++i) {
      setups.push_back(SetUpOnly());
    }
  };
  sample_setups(kSetupSamples / 2);
  // The untraced run times latency, so it samples no RSS. The traced run
  // splits its time between a live run that samples RSS while the heap is
  // fresh, a profiled one and an idle one; tolls need ~8 s of a live run,
  // so none is shorter than 10 s.
  std::vector<LiveRun> runs;
  const double live_s =
      options.trace ? std::max(options.seconds / 3, kMinTracedLiveSeconds) : options.seconds;
  runs.push_back(RunLive(trace, live_s, /*idle=*/false, options.trace, nullptr));
  if (options.trace) {
    SpanRecorder spans(&report);
    obs::SetProfilingEnabled(true);
    runs.push_back(RunLive(trace, live_s, /*idle=*/false, /*sample_rss=*/false, &spans));
    obs::SetProfilingEnabled(false);
  }
  for (const LiveRun& s : runs) {
    if (!s.error.empty()) {
      report.error = s.error;
      return report;
    }
    report.outputs.push_back(s.outputs);
    report.attempted += s.send.sent;
    report.failed += (s.send.sent - std::min(s.send.sent, s.received)) + s.rejects;
  }
  sample_setups(kSetupSamples - setups.size());
  const LiveRun& timed = runs.front();
  report.metrics["setup_s"] = Median(setups);
  report.metrics["reports_per_s"] = static_cast<double>(timed.received) / timed.cpu_s;
  report.metrics["peak_rss_mb"] = static_cast<double>(bench::PeakRssKb()) / 1024.0;
  report.info["toll_p50_ms"] = Percentile(timed.toll_ms, 50);
  report.info["toll_p99_ms"] = Percentile(timed.toll_ms, 99);
  report.info["toll_samples"] = static_cast<double>(timed.toll_ms.size());
  report.info["send_lag_p99_ms"] = Percentile(timed.send.lag_ms, 99);
  report.info["backpressure_pauses"] = static_cast<double>(timed.pauses);

  if (options.trace) {
    const LiveRun& traced = runs.back();
    report.metrics["lrb.build_ms"] = traced.build_s * 1e3;
    report.metrics["directors.initialize_ms"] = traced.init_s * 1e3;
    report.metrics["directors.run_s"] = traced.run_s;
    report.metrics["directors.wrapup_ms"] = traced.wrapup_s * 1e3;
    report.metrics["directors.firings"] = static_cast<double>(traced.firings);
    report.metrics["directors.host_us_per_firing"] =
        traced.cpu_s * 1e6 / static_cast<double>(traced.firings);
    report.metrics["stafilos.director_iterations"] = 0;  // no scheduler
    report.metrics["rss_growth_kb_per_kreport"] = timed.rss_growth;
    report.metrics["stream.feed_pending_max"] = timed.feed_pending_max;
    report.metrics["net.send_lag_p99_ms"] = Percentile(traced.send.lag_ms, 99);
    report.metrics["net.backpressure_pauses"] = static_cast<double>(traced.pauses);
    const double untraced_cpu = timed.cpu_s / static_cast<double>(timed.received);
    const double traced_cpu = traced.cpu_s / static_cast<double>(traced.received);
    report.metrics["obs.profile_overhead_pct"] = (traced_cpu / untraced_cpu - 1) * 100;
    // The share of the loaded run's CPU that the same deployment burns over
    // the same wall time with no traffic.
    const LiveRun idle = RunLive(trace, live_s, /*idle=*/true, /*sample_rss=*/false, nullptr);
    if (!idle.error.empty()) {
      report.error = idle.error;
      return report;
    }
    report.metrics["directors.idle_cpu_pct"] =
        idle.cpu_s / idle.run_s * timed.run_s / timed.cpu_s * 100;
    AddProfileMetrics(&report);
    RunLayerReplay(trace, /*replay_ingest=*/false, &report);
  }
  return report;
}

}  // namespace cwf::perfbench

// The layer replay of the traced run: pushes a workload's own
// generated trace through each layer's public entry point in isolation and
// reports host nanoseconds per call plus the state each layer ends up
// holding. Also credits the global profiler's totals to the report.

#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "core/clock.h"
#include "lrb/actors.h"
#include "lrb/types.h"
#include "net/frame.h"
#include "net/ingest_server.h"
#include "obs/profile.h"
#include "stream/push_channel.h"
#include "window/windowed_receiver.h"
#include "workloads.h"

namespace cwf::perfbench {
namespace {

int64_t Nanos(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// The LRB window specs that group by car: stopped-car detection, toll
/// calculation, and Avgsv's per-car-per-segment minute window.
std::vector<WindowSpec> CarGroupedSpecs() {
  using namespace lrb;
  return {WindowSpec::Tuples(kStoppedReportCount, 1).GroupBy({kFieldCar}),
          WindowSpec::Tuples(2, 1).GroupBy({kFieldCar}),
          WindowSpec::Time(Seconds(60), Seconds(60))
              .GroupBy({kFieldCar, kFieldXway, kFieldDir, kFieldSeg})
              .DeleteUsedEvents(true)};
}

void ReplayWindows(const Trace& trace, Report* report) {
  std::vector<std::unique_ptr<WindowedReceiver>> receivers;
  for (WindowSpec& spec : CarGroupedSpecs()) {
    receivers.push_back(std::make_unique<WindowedReceiver>(nullptr, std::move(spec)));
  }
  int64_t put_ns = 0;
  uint64_t puts = 0;
  uint64_t seq = 0;
  for (const TraceEntry& entry : trace.entries()) {
    ++seq;
    CWEvent event(entry.token, entry.arrival, WaveTag::Root(seq));
    event.last_in_wave = true;
    event.seq = seq;
    for (auto& receiver : receivers) {
      if (receiver->NextDeadline() <= entry.arrival) {
        receiver->OnTimeout(entry.arrival);
      }
      const auto t0 = std::chrono::steady_clock::now();
      const Status put = receiver->Put(event);
      put_ns += Nanos(std::chrono::steady_clock::now() - t0);
      ++puts;
      if (!put.ok()) {
        report->error = "WindowedReceiver::Put: " + put.ToString();
        return;
      }
      while (receiver->Get().has_value()) {
      }
    }
  }
  size_t groups = 0;
  size_t pending = 0;
  for (const auto& receiver : receivers) {
    groups += receiver->window_operator().GroupCount();
    pending += receiver->PendingEventCount();
  }
  report->metrics["window.put_ns"] = static_cast<double>(put_ns) / static_cast<double>(puts);
  report->metrics["window.groups"] = static_cast<double>(groups);
  report->metrics["window.pending_events"] = static_cast<double>(pending);
}

void ReplayDb(const Trace& trace, Report* report) {
  using namespace lrb;
  auto created = CreateLRBDatabase();
  if (!created.ok()) {
    report->error = "CreateLRBDatabase: " + created.status().ToString();
    return;
  }
  std::shared_ptr<db::Database> database = std::move(created).value();
  db::Table* stats = database->GetTable(kTableSegmentStats).value();
  db::Table* averages = database->GetTable(kTableSegmentAvgSpeed).value();
  db::Table* accidents = database->GetTable(kTableAccidents).value();

  int64_t upsert_ns = 0;
  int64_t lookup_ns = 0;
  uint64_t upserts = 0;
  uint64_t lookups = 0;
  std::set<std::tuple<int64_t, int64_t, int64_t, int64_t>> minutes_seen;
  bool ok = true;
  for (const TraceEntry& entry : trace.entries()) {
    const PositionReport r = PositionReport::FromToken(entry.token);
    const int64_t minute = r.time / 60;
    // Writes: the segment-statistics refresh, the per-minute segment
    // average (once per segment-minute), and the accident upsert of a
    // stopped car.
    auto t0 = std::chrono::steady_clock::now();
    ok &= stats->Upsert({"xway", "dir", "seg"},
                        {Value(r.xway), Value(r.dir), Value(r.seg), Value(r.speed),
                         Value(int64_t{1}), Value(minute)})
              .ok();
    ++upserts;
    if (minutes_seen.insert({r.xway, r.dir, r.seg, minute}).second) {
      ok &= averages
                ->Insert({Value(r.xway), Value(r.dir), Value(r.seg), Value(minute),
                          Value(r.speed)})
                .ok();
      ++upserts;
    }
    if (r.speed == 0) {
      ok &= accidents
                ->Upsert({"xway", "dir", "seg", "car1", "car2"},
                         {Value(r.xway), Value(r.dir), Value(r.seg), Value(r.pos),
                          Value(r.car), Value(r.car), Value(r.time)})
                .ok();
      ++upserts;
    }
    upsert_ns += Nanos(std::chrono::steady_clock::now() - t0);

    // Reads: the toll calculation's statistics lookup and accident scope.
    t0 = std::chrono::steady_clock::now();
    ok &= stats
              ->SelectOne(db::And({db::Eq("xway", Value(r.xway)),
                                   db::Eq("dir", Value(r.dir)),
                                   db::Eq("seg", Value(r.seg))}))
              .ok();
    ok &= AccidentInScope(accidents, r.xway, r.dir, r.seg, r.time - 60).ok();
    lookup_ns += Nanos(std::chrono::steady_clock::now() - t0);
    lookups += 2;
  }
  if (!ok) {
    report->error = "db replay: an operation failed";
    return;
  }
  report->metrics["db.upsert_ns"] = static_cast<double>(upsert_ns) / static_cast<double>(upserts);
  report->metrics["db.lookup_ns"] = static_cast<double>(lookup_ns) / static_cast<double>(lookups);
  report->metrics["db.rows"] = static_cast<double>(
      stats->RowCount() + averages->RowCount() + accidents->RowCount());
}

void ReplayStream(const Trace& trace, Report* report) {
  constexpr size_t kBatch = 64;
  PushChannel channel;
  std::vector<TraceEntry> batch;
  int64_t ns = 0;
  size_t moved = 0;
  const auto& entries = trace.entries();
  for (size_t i = 0; i < entries.size(); i += kBatch) {
    batch.assign(entries.begin() + static_cast<std::ptrdiff_t>(i),
                 entries.begin() + static_cast<std::ptrdiff_t>(std::min(i + kBatch, entries.size())));
    const auto t0 = std::chrono::steady_clock::now();
    const size_t pushed = channel.TryPushBatch(batch);
    moved += channel.PopArrived(Timestamp::Max()).size();
    ns += Nanos(std::chrono::steady_clock::now() - t0);
    if (pushed != batch.size()) {
      report->error = "PushChannel::TryPushBatch refused tuples";
      return;
    }
  }
  if (moved != entries.size()) {
    report->error = "PushChannel::PopArrived lost tuples";
    return;
  }
  report->metrics["stream.push_batch_ns"] = static_cast<double>(ns) / static_cast<double>(moved);
}

void ReplayDecode(const Trace& trace, Report* report) {
  std::string wire;
  for (const TraceEntry& entry : trace.entries()) {
    wire += net::EncodeFrame(0, SerializeTokenBody(entry.token));
  }
  constexpr size_t kReadBytes = 16 * 1024;  // IngestServer's read buffer
  net::FrameDecoder decoder;
  uint64_t frames = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t offset = 0; offset < wire.size(); offset += kReadBytes) {
    const Status fed = decoder.Feed(wire.data() + offset,
                                    std::min(kReadBytes, wire.size() - offset),
                                    [&frames](net::Frame&&) { ++frames; });
    if (!fed.ok()) {
      report->error = "FrameDecoder::Feed: " + fed.ToString();
      return;
    }
  }
  const int64_t ns = Nanos(std::chrono::steady_clock::now() - t0);
  if (frames != trace.size()) {
    report->error = "FrameDecoder lost frames";
    return;
  }
  report->metrics["net.decode_ns"] = static_cast<double>(ns) / static_cast<double>(frames);
}

/// The trace through a loopback IngestServer into a bounded channel that a
/// consumer thread drains: how late the open-loop sender ran and how often
/// the server paused a connection.
void ReplayIngest(const Trace& trace, Report* report) {
  constexpr double kRate = 20000;  // frames per second
  constexpr double kSeconds = 1.0;
  RealClock clock;
  auto feed = std::make_shared<PushChannel>();
  feed->SetCapacity(1024);
  net::IngestServer::Options options;
  options.shards = 1;
  net::IngestServer server(&clock, options);
  server.AddChannel(0, feed, "replay");
  const Status started = server.Start(0);
  if (!started.ok()) {
    report->error = "IngestServer::Start: " + started.ToString();
    return;
  }
  std::thread consumer([&feed] {
    while (!feed->closed() || feed->Pending() > 0) {
      feed->WaitForData();
      feed->PopArrived(Timestamp::Max());
    }
  });
  const SendResult sent = SendOpenLoop(trace, server.port(), 2, kRate, kSeconds);
  const double wait_until = WallSeconds() + 10;
  while (server.tuples_received() < sent.sent && WallSeconds() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t received = server.tuples_received();
  server.Stop();  // closes the channel, which ends the consumer
  consumer.join();
  if (!sent.ok || received != sent.sent) {
    report->error = "ingest replay delivered " + std::to_string(received) + " of " +
                    std::to_string(sent.sent) + " frames";
    return;
  }
  report->metrics["net.send_lag_p99_ms"] = Percentile(sent.lag_ms, 99);
  report->metrics["net.backpressure_pauses"] =
      static_cast<double>(server.backpressure_pauses());
}

}  // namespace

void RunLayerReplay(const Trace& trace, bool replay_ingest, Report* report) {
  SpanRecorder spans(report);
  const std::pair<const char*, void (*)(const Trace&, Report*)> stages[] = {
      {"replay.window", ReplayWindows},
      {"replay.db", ReplayDb},
      {"replay.stream", ReplayStream},
      {"replay.net_decode", ReplayDecode},
      {"replay.net_ingest", ReplayIngest},
  };
  for (const auto& [name, stage] : stages) {
    if (!replay_ingest && stage == ReplayIngest) {
      continue;
    }
    const size_t span = spans.Open(name, "replay");
    stage(trace, report);
    spans.Close(span);
    if (!report->error.empty()) {
      return;
    }
  }
}

void AddProfileMetrics(Report* report) {
  const obs::ProfileSnapshot snapshot =
      obs::SnapshotProfile(obs::MetricsRegistry::Global());
  std::map<std::string, double> totals = snapshot.PhaseTotalsUs();
  for (size_t i = 0; i < obs::kProfilePhaseCount; ++i) {
    const std::string phase = obs::ProfilePhaseName(obs::ProfilePhaseAt(i));
    const double us = totals[phase];  // phases never entered read 0
    report->host_phase_us[phase] = us;
    report->metrics["profile." + phase + "_share"] =
        snapshot.wall_ns == 0 ? 0 : us * 1e3 / static_cast<double>(snapshot.wall_ns) * 100;
  }
  report->metrics["profile.coverage_pct"] = snapshot.CoverageFraction() * 100;
}

}  // namespace cwf::perfbench

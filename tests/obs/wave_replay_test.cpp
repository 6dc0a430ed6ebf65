// The wave tracer's read-time replay against a reference model: the
// per-wave live table the tracer used to keep on its hot path (closure
// decided at every emit and firing, derived spans appended in hook order),
// here without its eviction cap. Random emit / firing sequences drive both;
// the replay must derive the same queued spans, closures, wave counts,
// critical-path report and latency values. A traced OS-thread PNCWF run
// checks the replay under concurrent hooks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "actors/library.h"
#include "common/rng.h"
#include "core/wave.h"
#include "directors/pncwf_director.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace_buffer.h"
#include "stream/stream_source.h"

namespace cwf::obs {
namespace {

using Kind = TraceEvent::Kind;

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

class LiveTableModel {
 public:
  void OnEventEmitted(const WaveTag& wave, int64_t ts, uint32_t fanout) {
    auto [it, inserted] = live_.try_emplace(wave.root());
    if (inserted) {
      it->second.birth = ts;
      it->second.last_done = ts;
      if (wave.depth() == 0) {
        ++born;
        TraceEvent ev;
        ev.kind = Kind::kWaveBorn;
        ev.ts = ts;
        ev.tid = 1;
        ev.wave_root = wave.root();
        ev.emitted = fanout;  // the tracer's record carries its fan-out
        events.push_back(ev);
      }
    }
    it->second.in_flight += fanout;
  }

  void OnFiring(uint32_t tid, const WaveTag* wave, int64_t start, int64_t end,
                uint32_t consumed, uint32_t emitted) {
    const uint64_t root = wave != nullptr ? wave->root() : 0;
    bool closed = false;
    int64_t birth = 0;
    if (wave != nullptr) {
      auto it = live_.find(root);
      if (it != live_.end()) {
        Live& lw = it->second;
        if (start > lw.last_done) {
          TraceEvent q;
          q.kind = Kind::kQueued;
          q.ts = lw.last_done;
          q.dur = start - lw.last_done;
          q.tid = tid + 1;
          q.wave_root = root;
          events.push_back(q);
        }
        lw.last_done = end;
        lw.in_flight -= consumed;
        if (lw.in_flight <= 0) {
          closed = true;
          birth = lw.birth;
          ++this->closed;
          live_.erase(it);
        }
      }
    }
    TraceEvent b;
    b.kind = Kind::kFiringBegin;
    b.ts = start;
    b.tid = tid;
    b.wave_root = root;
    b.consumed = consumed;
    b.emitted = emitted;
    events.push_back(b);
    TraceEvent e;
    e.kind = Kind::kFiringEnd;
    e.ts = end;
    e.tid = tid;
    e.wave_root = root;
    events.push_back(e);
    if (closed) {
      latencies.push_back(end - birth);
      TraceEvent c;
      c.kind = Kind::kWaveClosed;
      c.ts = end;
      c.tid = 1;
      c.wave_root = root;
      events.push_back(c);
      TraceEvent span = c;
      span.kind = Kind::kWaveSpan;
      span.ts = birth;
      span.dur = end - birth;
      events.push_back(span);
    }
  }

  void Instant(uint32_t tid, int64_t ts) {
    TraceEvent ev;
    ev.kind = Kind::kInstant;
    ev.ts = ts;
    ev.tid = tid;
    events.push_back(ev);
  }

  size_t live() const { return live_.size(); }

  std::vector<TraceEvent> events;  ///< what the tracer's ring used to hold
  std::vector<int64_t> latencies;  ///< closures, in order
  uint64_t born = 0;
  uint64_t closed = 0;

 private:
  struct Live {
    int64_t birth = 0;
    int64_t last_done = 0;
    int64_t in_flight = 0;
  };
  std::map<uint64_t, Live> live_;
};

/// The critical-path report the reference events imply: per root, every
/// firing's processing span and every queued span, the last closure's
/// latency, attributed when the root's birth is among the events. Only
/// roots in `roots` (all when empty) count.
CriticalPathReport ReferenceReport(const std::vector<TraceEvent>& events,
                                   const std::vector<std::string>& tracks,
                                   const std::set<uint64_t>& roots) {
  struct Chain {
    bool born = false;
    bool closed = false;
    int64_t latency = 0;
    uint32_t terminal = 0;
    std::map<std::pair<uint32_t, bool>, int64_t> spans;
  };
  std::map<uint64_t, Chain> chains;
  std::map<uint32_t, int64_t> open_begin;
  for (const TraceEvent& ev : events) {
    if (ev.wave_root == 0 || (!roots.empty() && !roots.count(ev.wave_root))) {
      continue;
    }
    Chain& chain = chains[ev.wave_root];
    switch (ev.kind) {
      case Kind::kWaveBorn:
        chain.born = true;
        break;
      case Kind::kWaveSpan:
        chain.closed = true;
        chain.latency = ev.dur;
        break;
      case Kind::kFiringBegin:
        open_begin[ev.tid] = ev.ts;
        break;
      case Kind::kFiringEnd:
        chain.spans[{ev.tid, false}] += ev.ts - open_begin[ev.tid];
        chain.terminal = ev.tid;
        break;
      case Kind::kQueued:
        chain.spans[{ev.tid - 1, true}] += ev.dur;
        break;
      default:
        break;
    }
  }
  CriticalPathReport report;
  std::map<std::string, CriticalPathGroup> groups;
  std::map<std::string, std::map<std::pair<std::string, bool>, int64_t>>
      contributors;
  for (const auto& [root, chain] : chains) {
    if (!chain.closed) {
      continue;
    }
    if (!chain.born) {
      ++report.truncated_waves;
      continue;
    }
    ++report.waves_analyzed;
    const std::string terminal = tracks[(chain.terminal - 10) / 2];
    CriticalPathGroup& group = groups[terminal];
    group.terminal_actor = terminal;
    ++group.waves;
    group.total_latency_us += chain.latency;
    for (const auto& [key, us] : chain.spans) {
      contributors[terminal][{tracks[(key.first - 10) / 2], key.second}] += us;
    }
  }
  for (auto& [terminal, group] : groups) {
    for (const auto& [key, us] : contributors[terminal]) {
      CriticalPathContributor c;
      c.actor = key.first;
      c.queueing = key.second;
      c.total_us = us;
      group.top.push_back(c);
    }
    report.groups.push_back(group);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

std::string Describe(const TraceEvent& ev) {
  return "kind=" + std::to_string(static_cast<int>(ev.kind)) +
         " ts=" + std::to_string(ev.ts) + " dur=" + std::to_string(ev.dur) +
         " root=" + std::to_string(ev.wave_root) +
         " tid=" + std::to_string(ev.tid) +
         " consumed=" + std::to_string(ev.consumed) +
         " emitted=" + std::to_string(ev.emitted);
}

void ExpectSameEvents(const std::vector<TraceEvent>& want,
                      const std::vector<TraceEvent>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Describe(want[i]), Describe(got[i])) << "event " << i;
  }
}

/// Groups keyed by terminal, contributors by (actor, queueing): the
/// report's order and top-n cut are presentation, compared elsewhere.
using ReportKey = std::map<std::string, std::pair<std::pair<uint64_t, int64_t>,
                                                  std::map<std::string, int64_t>>>;

ReportKey Key(const CriticalPathReport& report) {
  ReportKey key;
  for (const CriticalPathGroup& group : report.groups) {
    auto& entry = key[group.terminal_actor];
    entry.first = {group.waves, group.total_latency_us};
    for (const CriticalPathContributor& c : group.top) {
      entry.second[c.actor + (c.queueing ? " queueing" : " processing")] =
          c.total_us;
    }
  }
  return key;
}

// ---------------------------------------------------------------------------
// Random driver
// ---------------------------------------------------------------------------

struct Drive {
  std::vector<std::string> tracks;
  /// Absolute append index of each root's first record.
  std::map<uint64_t, uint64_t> first_record;
  uint64_t appended = 0;  ///< records the tracer appended
};

/// Feeds `hooks` random hook calls to both. Covers fan-out > 1, child tags
/// on live and on closed waves, depth-0 re-emission (when `reemit_roots`),
/// firings without a wave, on closed waves or on never-emitted ones,
/// zero-duration firings and scheduler instants.
Drive RandomSequence(uint64_t seed, int hooks, bool reemit_roots,
                     WaveTracer* tracer, LiveTableModel* model) {
  Rng rng(seed);
  Drive drive;
  std::vector<uint32_t> tids;
  for (const char* name : {"A", "B", "C"}) {
    drive.tracks.push_back(name);
    tids.push_back(tracer->RegisterTrack(name));
  }
  std::vector<WaveTag> waves;
  uint64_t& appended = drive.appended;
  int64_t now = 0;
  for (int h = 0; h < hooks; ++h) {
    now += rng.NextInRange(0, 30);
    const int64_t pick = rng.NextInRange(0, 99);
    if (pick < 20 || waves.empty()) {
      const WaveTag root = WaveTag::Root(waves.size() + 1);
      waves.push_back(root);
      const uint32_t fanout = static_cast<uint32_t>(rng.NextInRange(1, 3));
      drive.first_record.try_emplace(root.root(), appended);
      tracer->OnEventEmitted(root, Timestamp(now), fanout);
      model->OnEventEmitted(root, now, fanout);
      appended += 1;
      continue;
    }
    // Mostly recent waves, so most of them close.
    const size_t lo = waves.size() > 8 ? waves.size() - 8 : 0;
    const WaveTag& wave = waves[static_cast<size_t>(
        rng.NextInRange(static_cast<int64_t>(lo),
                       static_cast<int64_t>(waves.size()) - 1))];
    if (pick < 40) {
      // A descendant (or, rarely, a re-emitted depth-0 tag).
      const WaveTag tag = pick < 38 || !reemit_roots
                              ? wave.Child(static_cast<uint32_t>(
                                    rng.NextInRange(1, 3)))
                              : wave;
      const uint32_t fanout = static_cast<uint32_t>(rng.NextInRange(0, 2));
      tracer->OnEventEmitted(tag, Timestamp(now), fanout);
      model->OnEventEmitted(tag, now, fanout);
      appended += 1;
    } else if (pick < 95) {
      const uint32_t tid = tids[static_cast<size_t>(rng.NextInRange(0, 2))];
      const int64_t dur = rng.NextInRange(0, 3) == 0 ? 0 : rng.NextInRange(1, 40);
      const uint32_t consumed = static_cast<uint32_t>(rng.NextInRange(0, 2));
      const uint32_t emitted = static_cast<uint32_t>(rng.NextInRange(0, 2));
      // Now and then a firing carries no wave, or one that was never
      // emitted (as when tracing is switched on mid-run).
      const WaveTag unseen = WaveTag::Root(1'000'000 + h);
      const WaveTag* attributed =
          pick < 90 ? &wave : (pick < 92 ? &unseen : nullptr);
      tracer->OnFiring(tid, attributed, Timestamp(now), Timestamp(now + dur),
                       consumed, emitted);
      model->OnFiring(tid, attributed, now, now + dur, consumed, emitted);
      appended += 2;
      now += dur;
    } else {
      const uint32_t tid = tids[static_cast<size_t>(rng.NextInRange(0, 2))];
      tracer->Instant(tid, Timestamp(now));
      model->Instant(tid, now);
      appended += 1;
    }
  }
  return drive;
}

constexpr int kSeeds = 40;
constexpr int kHooks = 600;

TEST(WaveReplayTest, MatchesLiveTableModelOnRandomSequences) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WaveTracer tracer;  // never wraps at this length
    LiveTableModel model;
    Histogram latency;
    tracer.set_latency_sink(&latency);
    const Drive drive =
        RandomSequence(seed, kHooks, /*reemit_roots=*/true, &tracer, &model);
    ASSERT_LT(drive.appended, size_t{1} << 17);

    const TraceReplay replay = tracer.Replay();
    ExpectSameEvents(model.events, replay.timeline);
    EXPECT_EQ(model.born, replay.born);
    EXPECT_EQ(model.closed, replay.closed);
    EXPECT_EQ(model.live(), replay.live);
    ASSERT_GT(model.closed, 0u);

    // The latency values fed, once: a second read adds nothing.
    int64_t sum = 0;
    int64_t max = 0;
    for (int64_t v : model.latencies) {
      sum += v;
      max = std::max(max, v);
    }
    EXPECT_EQ(model.latencies.size(), latency.Count());
    EXPECT_EQ(sum, latency.Sum());
    EXPECT_EQ(max, latency.Max());
    tracer.Replay();
    EXPECT_EQ(model.latencies.size(), latency.Count());

    const CriticalPathReport got = ComputeCriticalPaths(tracer, 100);
    const CriticalPathReport want =
        ReferenceReport(model.events, drive.tracks, {});
    EXPECT_EQ(want.waves_analyzed, got.waves_analyzed);
    EXPECT_EQ(want.truncated_waves, got.truncated_waves);
    EXPECT_EQ(Key(want), Key(got));
  }
}

TEST(WaveReplayTest, WrappedRingMatchesModelForWavesBornInTheRing) {
  // A re-emitted depth-0 tag whose first birth the ring overwrote reads as
  // a birth, so this sequence re-emits none (the unwrapped test does).
  constexpr size_t kCapacity = 97;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WaveTracer tracer(kCapacity);
    LiveTableModel model;
    Histogram latency;
    tracer.set_latency_sink(&latency);
    const Drive drive = RandomSequence(seed, kHooks, /*reemit_roots=*/false,
                                       &tracer, &model);
    ASSERT_GT(drive.appended, kCapacity);
    const uint64_t horizon = drive.appended - kCapacity;

    // A wave whose first record survived has its whole life in the ring:
    // its records and derived spans match the model's exactly.
    std::set<uint64_t> in_ring;
    for (const auto& [root, first] : drive.first_record) {
      if (first >= horizon) {
        in_ring.insert(root);
      }
    }
    ASSERT_FALSE(in_ring.empty());
    const auto of_in_ring = [&in_ring](const std::vector<TraceEvent>& all) {
      std::vector<TraceEvent> out;
      for (const TraceEvent& ev : all) {
        if (in_ring.count(ev.wave_root)) {
          out.push_back(ev);
        }
      }
      return out;
    };
    const TraceReplay replay = tracer.Replay();
    ExpectSameEvents(of_in_ring(model.events), of_in_ring(replay.timeline));

    // Only those waves are attributable; the rest lost their heads.
    const CriticalPathReport got = ComputeCriticalPaths(tracer, 100);
    const CriticalPathReport want =
        ReferenceReport(model.events, drive.tracks, in_ring);
    EXPECT_EQ(want.waves_analyzed, got.waves_analyzed);
    EXPECT_EQ(Key(want), Key(got));

    const uint64_t fed = latency.Count();
    tracer.Replay();
    EXPECT_EQ(fed, latency.Count());
  }
}

TEST(WaveReplayTest, TracedOsThreadPncwfRunClosesEveryWave) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  // One thread per actor appends concurrently; every event's record still
  // precedes the firing that consumes it, so each wave closes exactly once.
  constexpr int kTuples = 200;
  ResetGlobalTracer();
  SetTracingEnabled(true);
  Workflow wf("traced_threads");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* map = wf.AddActor<MapActor>(
      "map", [](const Token& t) { return Token(t.AsInt() + 1); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), map->in()).ok());
  ASSERT_TRUE(wf.Connect(map->out(), sink->in()).ok());
  for (int i = 0; i < kTuples; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  RealClock clock;
  PNCWFOptions options;
  options.mode = PNCWFMode::kOsThreads;
  PNCWFDirector d(options);
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  SetTracingEnabled(false);
  ASSERT_EQ(sink->count(), static_cast<size_t>(kTuples));

  const TraceReplay replay = GlobalTracer().Replay();
  EXPECT_EQ(static_cast<uint64_t>(kTuples), replay.born);
  EXPECT_EQ(replay.born, replay.closed);
  EXPECT_EQ(0u, replay.live);

  // Balanced B/E per track in the exported (ts-sorted) document.
  const std::string json = GlobalTracer().RenderChromeJson();
  std::map<int64_t, int> depth;
  size_t begins = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    const size_t tid_at = json.find("\"tid\":", pos);
    ASSERT_NE(std::string::npos, tid_at);
    const int64_t tid = std::strtoll(json.c_str() + tid_at + 6, nullptr, 10);
    if (ph == 'B') {
      ++depth[tid];
      ++begins;
    } else if (ph == 'E') {
      --depth[tid];
      ASSERT_GE(depth[tid], 0) << "E without B on tid " << tid;
    }
    ++pos;
  }
  EXPECT_GT(begins, 0u);
  for (const auto& [tid, open] : depth) {
    EXPECT_EQ(0, open) << "unbalanced B/E on tid " << tid;
  }
  ResetGlobalTracer();
}

}  // namespace
}  // namespace cwf::obs

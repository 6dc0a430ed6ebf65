#include "obs/trace_buffer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/wave.h"
#include "obs/metrics.h"

namespace cwf::obs {
namespace {

/// Live-wave table cap: waves whose events expire out of window scope are
/// never consumed, so the oldest entry is evicted once the table fills.
constexpr size_t kMaxLiveWaves = 8192;

}  // namespace

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void TraceBuffer::Append(const TraceEvent& event) {
  ScopedLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_ % capacity_] = event;
  }
  ++next_;
  ++appended_;
}

std::vector<TraceEvent> TraceBuffer::SnapshotEvents() const {
  ScopedLock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring wrapped: oldest entry is at the write cursor.
    const size_t start = next_ % capacity_;
    out.insert(out.end(), ring_.begin() + start, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + start);
  }
  return out;
}

uint64_t TraceBuffer::total_appended() const {
  ScopedLock lock(mutex_);
  return appended_;
}

uint64_t TraceBuffer::dropped() const {
  ScopedLock lock(mutex_);
  return appended_ > ring_.size() ? appended_ - ring_.size() : 0;
}

void TraceBuffer::Clear() {
  ScopedLock lock(mutex_);
  ring_.clear();
  next_ = 0;
  appended_ = 0;
}

// ---------------------------------------------------------------------------
// WaveTracer
// ---------------------------------------------------------------------------

uint32_t WaveTracer::RegisterTrack(const std::string& actor_name) {
  ScopedLock lock(mutex_);
  auto [it, inserted] = track_index_.try_emplace(
      actor_name, static_cast<uint32_t>(track_names_.size()));
  if (inserted) {
    track_names_.push_back(actor_name);
  }
  return 10 + 2 * it->second;
}

void WaveTracer::ResetTopology(bool clear_buffer) {
  {
    ScopedLock lock(mutex_);
    track_names_.clear();
    track_index_.clear();
    live_.clear();
  }
  if (clear_buffer) {
    buffer_.Clear();
  }
}

void WaveTracer::OnEventEmitted(const WaveTag& wave, Timestamp event_ts,
                                size_t fanout) {
  const uint64_t root = wave.root();
  bool born = false;
  {
    ScopedLock lock(mutex_);
    auto [it, inserted] = live_.try_emplace(root);
    if (inserted) {
      if (live_.size() > kMaxLiveWaves) {
        // Evict the entry with the oldest birth (expired, never closing).
        auto oldest = live_.begin();
        for (auto walk = live_.begin(); walk != live_.end(); ++walk) {
          if (walk->second.birth < oldest->second.birth) {
            oldest = walk;
          }
        }
        if (oldest != it) {
          live_.erase(oldest);
        }
      }
      it->second.birth = event_ts;
      it->second.last_done = event_ts;
      if (wave.depth() == 0) {
        born = true;
        ++waves_born_;
      }
    }
    it->second.in_flight += static_cast<int64_t>(fanout);
  }
  if (born) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kWaveBorn;
    ev.ts = event_ts.micros();
    ev.tid = 1;
    ev.wave_root = root;
    buffer_.Append(ev);
  }
}

void WaveTracer::OnFiring(uint32_t tid, const WaveTag* wave, Timestamp start,
                          Timestamp end, size_t consumed, size_t emitted) {
  uint64_t root = 0;
  bool queued_span = false;
  Timestamp queued_from;
  bool closed = false;
  Timestamp birth;
  if (wave != nullptr) {
    root = wave->root();
    ScopedLock lock(mutex_);
    auto it = live_.find(root);
    if (it != live_.end()) {
      LiveWave& lw = it->second;
      if (start > lw.last_done) {
        queued_span = true;
        queued_from = lw.last_done;
      }
      lw.last_done = end;
      lw.in_flight -= static_cast<int64_t>(consumed);
      if (lw.in_flight <= 0) {
        closed = true;
        birth = lw.birth;
        ++waves_closed_;
        live_.erase(it);
      }
    }
  }

  if (queued_span) {
    TraceEvent q;
    q.kind = TraceEvent::Kind::kQueued;
    q.ts = queued_from.micros();
    q.dur = start - queued_from;
    q.tid = tid + 1;  // the actor's queueing track
    q.wave_root = root;
    buffer_.Append(q);
  }
  TraceEvent b;
  b.kind = TraceEvent::Kind::kFiringBegin;
  b.ts = start.micros();
  b.tid = tid;
  b.wave_root = root;
  b.consumed = static_cast<uint32_t>(consumed);
  b.emitted = static_cast<uint32_t>(emitted);
  buffer_.Append(b);
  TraceEvent e;
  e.kind = TraceEvent::Kind::kFiringEnd;
  e.ts = end.micros();
  e.tid = tid;
  e.wave_root = root;
  buffer_.Append(e);
  if (closed) {
    if (Histogram* sink = latency_sink_.load(std::memory_order_acquire)) {
      sink->Record(end - birth);
    }
    TraceEvent c;
    c.kind = TraceEvent::Kind::kWaveClosed;
    c.ts = end.micros();
    c.tid = 1;
    c.wave_root = root;
    buffer_.Append(c);
    TraceEvent span;
    span.kind = TraceEvent::Kind::kWaveSpan;
    span.ts = birth.micros();
    span.dur = end - birth;
    span.tid = 1;
    span.wave_root = root;
    buffer_.Append(span);
  }
}

void WaveTracer::Instant(uint32_t tid, Timestamp now) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.ts = now.micros();
  ev.tid = tid;
  buffer_.Append(ev);
}

size_t WaveTracer::live_waves() const {
  ScopedLock lock(mutex_);
  return live_.size();
}

uint64_t WaveTracer::waves_born() const {
  ScopedLock lock(mutex_);
  return waves_born_;
}

uint64_t WaveTracer::waves_closed() const {
  ScopedLock lock(mutex_);
  return waves_closed_;
}

std::vector<std::string> WaveTracer::TrackNames() const {
  ScopedLock lock(mutex_);
  return track_names_;
}

std::string WaveTracer::RenderChromeJson() const {
  std::vector<TraceEvent> events = buffer_.SnapshotEvents();
  std::vector<std::string> tracks;
  {
    ScopedLock lock(mutex_);
    tracks = track_names_;
  }
  // The exported timeline must be ts-ordered (and a stable sort keeps each
  // B before its matching E when a firing has zero duration).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });

  auto track_name = [&](uint32_t tid) -> std::string {
    if (tid == 1) {
      return "waves";
    }
    const size_t index = (tid - 10) / 2;
    if (index >= tracks.size()) {
      return "track" + std::to_string(tid);
    }
    return (tid % 2 == 0) ? tracks[index] : tracks[index] + " (queue)";
  };

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Metadata first: process name plus one thread_name record per track.
  out << R"({"name":"process_name","cat":"__metadata","ph":"M","ts":0,)"
      << R"("pid":1,"tid":1,"args":{"name":"confluence"}})";
  out << ",\n"
      << R"({"name":"thread_name","cat":"__metadata","ph":"M","ts":0,)"
      << R"("pid":1,"tid":1,"args":{"name":"waves"}})";
  for (size_t i = 0; i < tracks.size(); ++i) {
    for (uint32_t offset = 0; offset < 2; ++offset) {
      const uint32_t tid = 10 + 2 * static_cast<uint32_t>(i) + offset;
      out << ",\n"
          << R"({"name":"thread_name","cat":"__metadata","ph":"M","ts":0,)"
          << R"("pid":1,"tid":)" << tid << R"(,"args":{"name":")"
          << track_name(tid) << R"("}})";
    }
  }

  char line[512];
  for (const TraceEvent& ev : events) {
    const std::string wave = "t" + std::to_string(ev.wave_root);
    switch (ev.kind) {
      case TraceEvent::Kind::kFiringBegin:
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"cat\":\"firing\",\"ph\":\"B\","
                      "\"ts\":%" PRId64
                      ",\"pid\":1,\"tid\":%u,\"args\":{\"wave\":\"%s\","
                      "\"consumed\":%u,\"emitted\":%u}}",
                      track_name(ev.tid).c_str(), ev.ts, ev.tid, wave.c_str(),
                      ev.consumed, ev.emitted);
        break;
      case TraceEvent::Kind::kFiringEnd:
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"cat\":\"firing\",\"ph\":\"E\","
                      "\"ts\":%" PRId64 ",\"pid\":1,\"tid\":%u}",
                      track_name(ev.tid).c_str(), ev.ts, ev.tid);
        break;
      case TraceEvent::Kind::kQueued:
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":\"X\","
                      "\"ts\":%" PRId64 ",\"dur\":%" PRId64
                      ",\"pid\":1,\"tid\":%u,\"args\":{\"wave\":\"%s\"}}",
                      ev.ts, ev.dur, ev.tid, wave.c_str());
        break;
      case TraceEvent::Kind::kWaveBorn:
      case TraceEvent::Kind::kWaveClosed:
        std::snprintf(
            line, sizeof(line),
            "{\"name\":\"wave %s %s\",\"cat\":\"wave\",\"ph\":\"i\","
            "\"ts\":%" PRId64
            ",\"pid\":1,\"tid\":1,\"s\":\"p\",\"args\":{\"wave\":\"%s\"}}",
            wave.c_str(),
            ev.kind == TraceEvent::Kind::kWaveBorn ? "born" : "closed", ev.ts,
            wave.c_str());
        break;
      case TraceEvent::Kind::kWaveSpan:
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"wave %s\",\"cat\":\"wave\",\"ph\":\"X\","
                      "\"ts\":%" PRId64 ",\"dur\":%" PRId64
                      ",\"pid\":1,\"tid\":1,\"args\":{\"wave\":\"%s\"}}",
                      wave.c_str(), ev.ts, ev.dur, wave.c_str());
        break;
      case TraceEvent::Kind::kInstant:
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"pick\",\"cat\":\"sched\",\"ph\":\"i\","
                      "\"ts\":%" PRId64
                      ",\"pid\":1,\"tid\":%u,\"s\":\"t\"}",
                      ev.ts, ev.tid);
        break;
    }
    out << ",\n" << line;
  }
  out << "\n]}\n";
  return out.str();
}

Status WaveTracer::WriteChromeJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  file << RenderChromeJson();
  file.close();
  if (!file) {
    return Status::Internal("failed writing trace output file: " + path);
  }
  return Status::OK();
}

}  // namespace cwf::obs

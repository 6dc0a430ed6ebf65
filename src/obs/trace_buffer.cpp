#include "obs/trace_buffer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common/check.h"
#include "core/wave.h"
#include "obs/metrics.h"

namespace cwf::obs {

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void TraceBuffer::Append(std::initializer_list<TraceEvent> events) {
  ScopedLock lock(mutex_);
  for (const TraceEvent& event : events) {
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[appended_ % capacity_] = event;
    }
    ++appended_;
  }
}

TraceBuffer::Snapshot TraceBuffer::TakeSnapshot() const {
  ScopedLock lock(mutex_);
  Snapshot out;
  if (ring_.size() < capacity_) {
    out.events = ring_;
    return out;
  }
  // Ring wrapped: the oldest record is at the write cursor.
  const size_t start = appended_ % capacity_;
  out.events.reserve(capacity_);
  out.events.insert(out.events.end(), ring_.begin() + start, ring_.end());
  out.events.insert(out.events.end(), ring_.begin(), ring_.begin() + start);
  out.first_index = appended_ - capacity_;
  return out;
}

void TraceBuffer::Clear() {
  ScopedLock lock(mutex_);
  ring_.clear();
  appended_ = 0;
}

// ---------------------------------------------------------------------------
// WaveTracer: append side
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

void WaveTracer::Reset() {
  {
    ScopedLock lock(mutex_);
    track_names_.clear();
    track_index_.clear();
  }
  buffer_.Clear();
  ScopedLock lock(feed_mutex_);
  fed_through_ = 0;
}

void WaveTracer::OnEventEmitted(const WaveTag& wave, Timestamp event_ts,
                                size_t fanout) {
  buffer_.Append({{.ts = event_ts.micros(),
                   .wave_root = wave.root(),
                   .tid = 1,
                   .kind = wave.depth() == 0 ? TraceEvent::Kind::kWaveBorn
                                             : TraceEvent::Kind::kEmit,
                   .emitted = static_cast<uint32_t>(fanout)}});
}

void WaveTracer::OnFiring(uint32_t tid, const WaveTag* wave, Timestamp start,
                          Timestamp end, size_t consumed, size_t emitted) {
  const uint64_t root = wave != nullptr ? wave->root() : 0;
  // Adjacent in the ring, so the replay reads a firing as one B/E pair.
  buffer_.Append({{.ts = start.micros(),
                   .wave_root = root,
                   .tid = tid,
                   .kind = TraceEvent::Kind::kFiringBegin,
                   .consumed = static_cast<uint32_t>(consumed),
                   .emitted = static_cast<uint32_t>(emitted)},
                  {.ts = end.micros(),
                   .wave_root = root,
                   .tid = tid,
                   .kind = TraceEvent::Kind::kFiringEnd}});
}

void WaveTracer::Instant(uint32_t tid, Timestamp now) {
  buffer_.Append(
      {{.ts = now.micros(), .tid = tid, .kind = TraceEvent::Kind::kInstant}});
}

// ---------------------------------------------------------------------------
// WaveTracer: read side
// ---------------------------------------------------------------------------

TraceReplay WaveTracer::Replay() const {
  Histogram* sink = latency_sink_.load(std::memory_order_acquire);
  ScopedLock feed_lock(feed_mutex_);  // one replay feeds the sink at a time
  const TraceBuffer::Snapshot snapshot = buffer_.TakeSnapshot();
  const std::vector<TraceEvent>& ring = snapshot.events;
  // Once the ring has overwritten records, a firing of a wave the replay
  // has not met yet belongs to a wave whose head is gone.
  const bool head_lost = snapshot.first_index > 0;

  struct Lineage {
    bool open = false;      ///< in flight
    bool headless = false;  ///< first met at a firing after head_lost
    int64_t birth = 0;
    int64_t last_done = 0;  ///< engine time it last finished processing
    int64_t in_flight = 0;
    WaveChain chain;
  };
  std::unordered_map<uint64_t, Lineage> lineages;
  uint64_t headless = 0;

  TraceReplay out;
  out.timeline.reserve(ring.size());
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& ev = ring[i];
    switch (ev.kind) {
      case TraceEvent::Kind::kWaveBorn:
      case TraceEvent::Kind::kEmit: {
        Lineage& wave = lineages[ev.wave_root];
        if (!wave.open) {
          // The first stamped event of a wave (or the first after it
          // closed) opens it; only a depth-0 one births it.
          wave.open = true;
          wave.headless = false;
          wave.birth = wave.last_done = ev.ts;
          wave.in_flight = 0;
          if (ev.kind == TraceEvent::Kind::kWaveBorn) {
            ++out.born;
            wave.chain.attributable = true;
            out.timeline.push_back(ev);
          }
        }
        wave.in_flight += ev.emitted;
        break;
      }
      case TraceEvent::Kind::kFiringBegin: {
        CWF_DCHECK(i + 1 < ring.size() &&
                   ring[i + 1].kind == TraceEvent::Kind::kFiringEnd);
        const TraceEvent& begin = ev;
        const TraceEvent& end = ring[++i];
        Lineage* wave = nullptr;
        bool closes = false;
        if (begin.wave_root != 0) {
          auto [it, first_met] = lineages.try_emplace(begin.wave_root);
          wave = &it->second;
          if (first_met && head_lost) {
            // Its in-flight count is lost; count from zero, and start no
            // queued span (its wait began before the ring's oldest record).
            wave->open = true;
            wave->headless = true;
            wave->last_done = begin.ts;
            ++headless;
          }
          if (wave->open) {
            if (begin.ts > wave->last_done) {
              const int64_t queued = begin.ts - wave->last_done;
              out.timeline.push_back({.ts = wave->last_done,
                                      .dur = queued,
                                      .wave_root = begin.wave_root,
                                      .tid = begin.tid + 1,  // queue track
                                      .kind = TraceEvent::Kind::kQueued});
              wave->chain.spans[{begin.tid, true}] += queued;
            }
            wave->last_done = end.ts;
            wave->in_flight -= begin.consumed;
            // A headless count started at zero, so only a firing that
            // passes nothing on may be taken for the wave's last.
            closes = wave->in_flight <= 0 &&
                     (!wave->headless || begin.emitted == 0);
          }
          wave->chain.spans[{begin.tid, false}] += end.ts - begin.ts;
          wave->chain.terminal_tid = begin.tid;
        }
        out.timeline.push_back(begin);
        out.timeline.push_back(end);
        if (closes) {
          wave->open = false;
          wave->chain.closed = true;
          if (!wave->headless) {
            ++out.closed;
            const int64_t latency = end.ts - wave->birth;
            wave->chain.latency_us = latency;
            if (sink != nullptr && snapshot.first_index + i >= fed_through_) {
              sink->Record(latency);
            }
            out.timeline.push_back({.ts = end.ts,
                                    .wave_root = begin.wave_root,
                                    .tid = 1,
                                    .kind = TraceEvent::Kind::kWaveClosed});
            out.timeline.push_back({.ts = wave->birth,
                                    .dur = latency,
                                    .wave_root = begin.wave_root,
                                    .tid = 1,
                                    .kind = TraceEvent::Kind::kWaveSpan});
          }
        }
        break;
      }
      case TraceEvent::Kind::kFiringEnd:
        // Only the ring's oldest record can be an E whose B was
        // overwritten; that firing's wave is met later as headless.
      case TraceEvent::Kind::kInstant:
        out.timeline.push_back(ev);
        break;
      case TraceEvent::Kind::kQueued:
      case TraceEvent::Kind::kWaveClosed:
      case TraceEvent::Kind::kWaveSpan:
        break;  // derived here, never appended
    }
  }

  out.waves.reserve(lineages.size());
  for (auto& [root, wave] : lineages) {
    static_cast<void>(root);
    if (wave.open && !wave.headless) {
      ++out.live;
    }
    out.waves.push_back(std::move(wave.chain));
  }
  out.born += headless;
  out.closed += headless;

  fed_through_ = snapshot.first_index + ring.size();
  return out;
}

std::vector<std::string> WaveTracer::TrackNames() const {
  ScopedLock lock(mutex_);
  return track_names_;
}

std::string WaveTracer::RenderChromeJson() const {
  std::vector<TraceEvent> events = Replay().timeline;
  // The exported timeline must be ts-ordered (and a stable sort keeps each
  // B before its matching E when a firing has zero duration).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });

  // Track names by tid.
  const std::vector<std::string> tracks = TrackNames();
  std::vector<std::string> names(10 + 2 * tracks.size());
  names[1] = "waves";
  for (size_t i = 0; i < tracks.size(); ++i) {
    names[10 + 2 * i] = tracks[i];
    names[11 + 2 * i] = tracks[i] + " (queue)";
  }
  std::string unknown;
  auto track_name = [&](uint32_t tid) -> const char* {
    if (tid < names.size() && !names[tid].empty()) {
      return names[tid].c_str();
    }
    unknown = "track" + std::to_string(tid);
    return unknown.c_str();
  };

  std::string out;
  out.reserve(512 + events.size() * 128);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Metadata first: process name plus one thread_name record per track.
  out += R"({"name":"process_name","cat":"__metadata","ph":"M","ts":0,)"
         R"("pid":1,"tid":1,"args":{"name":"confluence"}})";
  char line[512];
  for (uint32_t tid = 1; tid < names.size(); ++tid) {
    if (names[tid].empty()) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\":\"thread_name\",\"cat\":\"__metadata\","
                  "\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  tid, names[tid].c_str());
    out += line;
  }

  for (const TraceEvent& ev : events) {
    int n = 0;
    switch (ev.kind) {
      case TraceEvent::Kind::kFiringBegin:
        n = std::snprintf(line, sizeof(line),
                          ",\n{\"name\":\"%s\",\"cat\":\"firing\",\"ph\":\"B\","
                          "\"ts\":%" PRId64
                          ",\"pid\":1,\"tid\":%u,\"args\":{\"wave\":\"t%" PRIu64
                          "\",\"consumed\":%u,\"emitted\":%u}}",
                          track_name(ev.tid), ev.ts, ev.tid, ev.wave_root,
                          ev.consumed, ev.emitted);
        break;
      case TraceEvent::Kind::kFiringEnd:
        n = std::snprintf(line, sizeof(line),
                          ",\n{\"name\":\"%s\",\"cat\":\"firing\",\"ph\":\"E\","
                          "\"ts\":%" PRId64 ",\"pid\":1,\"tid\":%u}",
                          track_name(ev.tid), ev.ts, ev.tid);
        break;
      case TraceEvent::Kind::kQueued:
        n = std::snprintf(line, sizeof(line),
                          ",\n{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":"
                          "\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                          ",\"pid\":1,\"tid\":%u,\"args\":{\"wave\":\"t%" PRIu64
                          "\"}}",
                          ev.ts, ev.dur, ev.tid, ev.wave_root);
        break;
      case TraceEvent::Kind::kWaveBorn:
      case TraceEvent::Kind::kWaveClosed:
        n = std::snprintf(
            line, sizeof(line),
            ",\n{\"name\":\"wave t%" PRIu64
            " %s\",\"cat\":\"wave\",\"ph\":\"i\",\"ts\":%" PRId64
            ",\"pid\":1,\"tid\":1,\"s\":\"p\",\"args\":{\"wave\":\"t%" PRIu64
            "\"}}",
            ev.wave_root,
            ev.kind == TraceEvent::Kind::kWaveBorn ? "born" : "closed", ev.ts,
            ev.wave_root);
        break;
      case TraceEvent::Kind::kWaveSpan:
        n = std::snprintf(line, sizeof(line),
                          ",\n{\"name\":\"wave t%" PRIu64
                          "\",\"cat\":\"wave\",\"ph\":\"X\",\"ts\":%" PRId64
                          ",\"dur\":%" PRId64
                          ",\"pid\":1,\"tid\":1,\"args\":{\"wave\":\"t%" PRIu64
                          "\"}}",
                          ev.wave_root, ev.ts, ev.dur, ev.wave_root);
        break;
      case TraceEvent::Kind::kEmit:
        continue;  // never in the timeline
      case TraceEvent::Kind::kInstant:
        n = std::snprintf(line, sizeof(line),
                          ",\n{\"name\":\"pick\",\"cat\":\"sched\",\"ph\":\"i\","
                          "\"ts\":%" PRId64
                          ",\"pid\":1,\"tid\":%u,\"s\":\"t\"}",
                          ev.ts, ev.tid);
        break;
    }
    out.append(line, static_cast<size_t>(std::min<int>(n, sizeof(line) - 1)));
  }
  out += "\n]}\n";
  return out;
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

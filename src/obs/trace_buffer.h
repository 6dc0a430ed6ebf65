// Wave-lineage tracing: decompose end-to-end wave latency into per-actor
// queueing and processing spans.
//
// Every wave-tag (the provenance unit of CONFLuEnCE) gets a birth timestamp
// when its root external event is stamped and a closure timestamp when its
// last in-flight descendant is consumed. Between the two, every actor
// firing attributed to the wave is recorded as a processing span on the
// actor's track, preceded by a queueing span covering the time the wave sat
// in receiver queues since it last finished processing anywhere.
//
// Spans land in a bounded ring buffer (oldest events are overwritten; the
// drop count is reported) and export as Chrome trace-event JSON — load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are
// engine time (virtual or real), so a virtual-clock Linear Road run renders
// its full 600-second timeline.

#ifndef CONFLUENCE_OBS_TRACE_BUFFER_H_
#define CONFLUENCE_OBS_TRACE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "common/time.h"

namespace cwf {
class Actor;
class WaveTag;
}  // namespace cwf

namespace cwf::obs {

class Histogram;

/// \brief One entry of the trace ring buffer (fixed-size, no allocation on
/// the hot path; names resolve through the tracer's track table at export).
struct TraceEvent {
  enum class Kind : uint8_t {
    kFiringBegin,   // ph "B" on the actor's processing track
    kFiringEnd,     // ph "E" matching kFiringBegin
    kQueued,        // ph "X" (complete span) on the actor's queueing track
    kWaveBorn,      // ph "i" instant on the wave track
    kWaveClosed,    // ph "i" instant on the wave track
    kWaveSpan,      // ph "X" birth→closure on the wave track
    kInstant,       // ph "i" generic (scheduler picks etc.)
  };

  int64_t ts = 0;        ///< engine time, µs
  int64_t dur = 0;       ///< span length for kQueued / kWaveSpan
  uint64_t wave_root = 0;
  uint32_t tid = 0;
  Kind kind = Kind::kInstant;
  uint32_t consumed = 0;
  uint32_t emitted = 0;
};

/// \brief Bounded MPSC-safe ring buffer of trace events.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 1 << 17);

  void Append(const TraceEvent& event);

  /// \brief Copy out the buffered events in append order (oldest first).
  std::vector<TraceEvent> SnapshotEvents() const;

  uint64_t total_appended() const;
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  void Clear();

 private:
  const size_t capacity_;
  mutable OrderedMutex mutex_{"obs::TraceBuffer::mutex"};
  std::vector<TraceEvent> ring_ CWF_GUARDED_BY(mutex_);
  size_t next_ CWF_GUARDED_BY(mutex_) = 0;  ///< ring write cursor
  uint64_t appended_ CWF_GUARDED_BY(mutex_) = 0;
};

/// \brief The tracer a director feeds: owns the ring buffer, the live-wave
/// table (birth / in-flight counts / last-processed), and the track naming
/// used by the Chrome export.
///
/// Track layout: tid 1 is the wave track; actor i gets tid 10+2i for
/// processing spans and tid 11+2i for queueing spans.
class WaveTracer {
 public:
  explicit WaveTracer(size_t capacity = 1 << 17) : buffer_(capacity) {}

  /// \brief Register an actor track; returns the processing-track tid.
  /// Called once per actor at Director::Initialize. Registering a name that
  /// already has a track returns its existing tid, so re-initializing the
  /// same workflow does not grow the track table.
  uint32_t RegisterTrack(const std::string& actor_name);

  /// \brief Forget tracks and live waves (Initialize re-entry). The ring
  /// buffer itself survives unless `clear_buffer`.
  void ResetTopology(bool clear_buffer = false);

  /// \brief An event was stamped and broadcast to `fanout` receivers.
  /// Depth-0 tags birth a wave.
  void OnEventEmitted(const WaveTag& wave, Timestamp event_ts, size_t fanout);

  /// \brief A firing attributed to `wave` ran on the actor with processing
  /// track `tid` over [start, end] engine time, consuming `consumed`
  /// delivered events and emitting `emitted`. Records queueing + processing
  /// spans and closes the wave when nothing of it remains in flight.
  void OnFiring(uint32_t tid, const WaveTag* wave, Timestamp start,
                Timestamp end, size_t consumed, size_t emitted);

  /// \brief Generic instant marker on an actor's processing track
  /// (scheduler decisions).
  void Instant(uint32_t tid, Timestamp now);

  /// \brief Optional metrics bridge: every wave closure also records the
  /// birth→closure latency (µs) into `sink`. nullptr detaches.
  void set_latency_sink(Histogram* sink) {
    latency_sink_.store(sink, std::memory_order_release);
  }

  /// \brief Live (born, not yet closed) wave count.
  size_t live_waves() const;

  uint64_t waves_born() const;
  uint64_t waves_closed() const;

  const TraceBuffer& buffer() const { return buffer_; }

  /// \brief Registered actor-track names, index = (tid - 10) / 2 (drives
  /// critical-path attribution in obs/profile).
  std::vector<std::string> TrackNames() const;

  /// \brief Render everything as Chrome trace-event JSON: metadata first,
  /// then all events sorted by ts (stable, so B precedes its E at equal
  /// ts). Loadable in Perfetto / chrome://tracing.
  std::string RenderChromeJson() const;

  /// \brief Write RenderChromeJson() to a file.
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct LiveWave {
    Timestamp birth;
    Timestamp last_done;  ///< engine time the wave last finished processing
    int64_t in_flight = 0;
  };

  TraceBuffer buffer_;
  std::atomic<Histogram*> latency_sink_{nullptr};
  mutable OrderedMutex mutex_{"obs::WaveTracer::mutex"};
  /// index = (tid - 10) / 2
  std::vector<std::string> track_names_ CWF_GUARDED_BY(mutex_);
  /// name -> index into track_names_
  std::map<std::string, uint32_t> track_index_ CWF_GUARDED_BY(mutex_);
  std::map<uint64_t, LiveWave> live_ CWF_GUARDED_BY(mutex_);
  uint64_t waves_born_ CWF_GUARDED_BY(mutex_) = 0;
  uint64_t waves_closed_ CWF_GUARDED_BY(mutex_) = 0;
};

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_TRACE_BUFFER_H_

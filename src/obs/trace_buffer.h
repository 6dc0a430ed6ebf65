// Wave-lineage tracing: decompose end-to-end wave latency into per-actor
// queueing and processing spans.
//
// The hooks only append. Every stamped event and every firing lands as
// fixed-size records in a bounded ring buffer (oldest records are
// overwritten). Everything about a wave's life —
// its birth, the time it sat in receiver queues before each firing, its
// closure once its last in-flight descendant is consumed — is worked out
// when the trace is read, by one replay of the ring (WaveTracer::Replay).
// The Chrome trace-event export, the critical-path report (obs/profile.h)
// and the cwf_wave_latency_us histogram all read that replay.
//
// The export loads in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Timestamps are engine time (virtual or real), so a virtual-clock Linear
// Road run renders its full 600-second timeline.

#ifndef CONFLUENCE_OBS_TRACE_BUFFER_H_
#define CONFLUENCE_OBS_TRACE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "common/time.h"

namespace cwf {
class WaveTag;
}  // namespace cwf

namespace cwf::obs {

class Histogram;

/// \brief One trace record (fixed-size, no allocation on the hot path;
/// names resolve through the tracer's track table at export). The hooks
/// append the first five kinds; the replay derives the rest.
struct TraceEvent {
  enum class Kind : uint8_t {
    kWaveBorn,      // a depth-0 event was stamped; ph "i" on the wave track
                    // when it births a wave
    kEmit,          // a descendant event was stamped (not rendered)
    kFiringBegin,   // ph "B" on the actor's processing track
    kFiringEnd,     // ph "E" matching kFiringBegin
    kInstant,       // ph "i" generic (scheduler picks etc.)
    kQueued,        // ph "X" (complete span) on the actor's queueing track
    kWaveClosed,    // ph "i" instant on the wave track
    kWaveSpan,      // ph "X" birth→closure on the wave track
  };

  int64_t ts = 0;        ///< engine time, µs
  int64_t dur = 0;       ///< span length for kQueued / kWaveSpan
  uint64_t wave_root = 0;  ///< 0: no wave (source firings, instants)
  uint32_t tid = 0;
  Kind kind = Kind::kInstant;
  uint32_t consumed = 0;  ///< kFiringBegin: delivered events consumed
  /// kFiringBegin: events emitted; kWaveBorn / kEmit: receivers the event
  /// was broadcast to (its fan-out).
  uint32_t emitted = 0;
};

/// \brief Bounded MPSC-safe ring buffer of trace records.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 1 << 17);

  /// \brief Append `events` in order, with no other record between them.
  void Append(std::initializer_list<TraceEvent> events);

  /// \brief The buffered records in append order (oldest first), plus the
  /// absolute append index of the oldest; it is > 0 once the ring has
  /// overwritten records.
  struct Snapshot {
    std::vector<TraceEvent> events;
    uint64_t first_index = 0;
  };
  Snapshot TakeSnapshot() const;

  void Clear();

 private:
  const size_t capacity_;
  mutable OrderedMutex mutex_{"obs::TraceBuffer::mutex"};
  std::vector<TraceEvent> ring_ CWF_GUARDED_BY(mutex_);
  uint64_t appended_ CWF_GUARDED_BY(mutex_) = 0;  ///< also the write cursor
};

/// \brief One wave's lineage as the replay rebuilt it: the critical-path
/// input (obs/profile.h).
struct WaveChain {
  bool closed = false;
  /// Its birth is in the ring, so the chain is whole and may be attributed.
  bool attributable = false;
  int64_t latency_us = 0;     ///< birth→closure of its last closure
  uint32_t terminal_tid = 0;  ///< processing track of its last firing
  /// (processing tid, queueing?) → summed span µs
  std::map<std::pair<uint32_t, bool>, int64_t> spans;
};

/// \brief What one replay of the ring derived.
struct TraceReplay {
  /// The ring's records in append order with the derived spans spliced in:
  /// a queued span right before its firing's B, the closed instant and the
  /// birth→closure span right after the closing firing's E. kEmit records
  /// and kWaveBorn records that birthed nothing are left out.
  std::vector<TraceEvent> timeline;
  std::vector<WaveChain> waves;  ///< one per wave root the ring mentions
  /// Wave counts. A wave whose head the ring overwrote ("headless") counts
  /// as born and closed but never as live: its in-flight count is lost.
  uint64_t born = 0;
  uint64_t closed = 0;
  uint64_t live = 0;
};

/// \brief The tracer a director feeds: owns the ring buffer and the track
/// naming used by the Chrome export. It keeps no per-wave state.
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

  /// \brief Forget tracks and every record (between runs).
  void Reset();

  /// \brief An event was stamped and broadcast to `fanout` receivers.
  /// Depth-0 tags birth a wave.
  void OnEventEmitted(const WaveTag& wave, Timestamp event_ts, size_t fanout);

  /// \brief A firing attributed to `wave` ran on the actor with processing
  /// track `tid` over [start, end] engine time, consuming `consumed`
  /// delivered events and emitting `emitted`.
  void OnFiring(uint32_t tid, const WaveTag* wave, Timestamp start,
                Timestamp end, size_t consumed, size_t emitted);

  /// \brief Generic instant marker on an actor's processing track
  /// (scheduler decisions).
  void Instant(uint32_t tid, Timestamp now);

  /// \brief Optional metrics bridge: each replay records the birth→closure
  /// latency (µs) of the closures appended since the previous replay into
  /// `sink`. nullptr detaches.
  void set_latency_sink(Histogram* sink) {
    latency_sink_.store(sink, std::memory_order_release);
  }

  /// \brief Replay the ring in append order. This is the one place wave
  /// closure is decided: a wave is born at its first stamped event, its
  /// in-flight count grows by each stamped event's fan-out and shrinks by
  /// each firing's consumed count, and it closes when the count reaches
  /// zero. Feeds the latency sink (see set_latency_sink).
  TraceReplay Replay() const;

  /// \brief Live (born, not yet closed) wave count, from a replay.
  size_t live_waves() const { return Replay().live; }
  uint64_t waves_born() const { return Replay().born; }
  uint64_t waves_closed() const { return Replay().closed; }

  /// \brief Registered actor-track names, index = (tid - 10) / 2 (drives
  /// critical-path attribution in obs/profile).
  std::vector<std::string> TrackNames() const;

  /// \brief Render everything as Chrome trace-event JSON: metadata first,
  /// then the replay's timeline sorted by ts (stable, so B precedes its E
  /// at equal ts). Loadable in Perfetto / chrome://tracing.
  std::string RenderChromeJson() const;

  /// \brief Write RenderChromeJson() to a file.
  Status WriteChromeJson(const std::string& path) const;

 private:
  TraceBuffer buffer_;
  std::atomic<Histogram*> latency_sink_{nullptr};
  mutable OrderedMutex mutex_{"obs::WaveTracer::mutex"};
  /// index = (tid - 10) / 2
  std::vector<std::string> track_names_ CWF_GUARDED_BY(mutex_);
  /// name -> index into track_names_
  std::map<std::string, uint32_t> track_index_ CWF_GUARDED_BY(mutex_);
  /// Absolute append index up to which closures were fed to the latency
  /// sink; replays never feed a closure twice. Taken before the ring's lock.
  mutable OrderedMutex feed_mutex_{"obs::WaveTracer::feed_mutex"};
  mutable uint64_t fed_through_ CWF_GUARDED_BY(feed_mutex_) = 0;
};

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_TRACE_BUFFER_H_

// The hook layer between the engine's hot paths and the observability
// backends (obs/metrics.h, obs/trace_buffer.h). It is a pure sink: nothing
// the engine decides reads back from it (the STAFiLOS statistics module is
// scheduler-side and fed by the scheduler's own hooks).
//
// Design rules:
//  * Instruments are resolved ONCE, at Director::Initialize (Bind /
//    CreateReceiverProbe). The hot-path hooks touch nothing but relaxed
//    atomics and one read-only table indexed by Actor::slot() — the
//    registry lock is never taken while the workflow runs.
//  * Every sink is gated — at compile time by CWF_OBS_ENABLED (CMake option
//    CONFLUENCE_OBS) and at runtime by obs::MetricsEnabled() /
//    obs::TracingEnabled().
//  * All directors share one process-global WaveTracer so composite
//    actors' inner directors land on the same Perfetto timeline.

#ifndef CONFLUENCE_OBS_TELEMETRY_H_
#define CONFLUENCE_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/event.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace_buffer.h"

namespace cwf {
class Actor;
class Workflow;
}  // namespace cwf

namespace cwf::obs {

/// \brief The engine-wide wave tracer every director feeds (composite inner
/// directors included — one timeline).
WaveTracer& GlobalTracer();

/// \brief Clear the global tracer's tracks and ring buffer.
/// Tools and tests call this between runs; directors never do (another
/// director may still be live).
void ResetGlobalTracer();

/// \brief Per-channel receiver instruments, resolved when the director
/// builds the receiver. Receivers hold a const pointer and update through
/// Receiver::RecordDepth/NoteGet/NoteBlockedMicros; nullptr (telemetry
/// compiled out, or a boundary collector built outside a director) means no
/// instrumentation.
struct ReceiverProbe {
  Counter* puts = nullptr;        ///< cwf_receiver_puts_total{port}
  Counter* gets = nullptr;        ///< cwf_receiver_gets_total{port}
  Gauge* depth = nullptr;         ///< cwf_receiver_depth{port}; Max = HWM
  Counter* blocked_us = nullptr;  ///< cwf_receiver_blocked_us_total{port}
  /// Host-profiler cells for this channel (labelled by port name); nullptr
  /// only when the whole probe is (compiled-out telemetry).
  const ProfileSite* put_site = nullptr;      ///< receiver_put phase
  const ProfileSite* get_site = nullptr;      ///< receiver_get phase
  const ProfileSite* blocked_site = nullptr;  ///< blocked phase
};

/// \brief Everything known about one completed firing, handed to
/// RecordFiring by the director that drove it.
struct FiringRecord {
  const Actor* actor = nullptr;
  /// Engine-time cost: modeled (virtual clock) or measured (real clock).
  /// Host time per phase comes from the profiler (obs/profile.h).
  Duration cost = 0;
  size_t consumed = 0;
  size_t emitted = 0;
  Timestamp start;  ///< engine time the firing began
  Timestamp end;    ///< engine time the firing completed
  /// Wave attribution of the firing (nullptr for source firings, which
  /// consume nothing).
  const WaveTag* wave = nullptr;
};

/// \brief One director's telemetry frontend: owns the resolved instrument
/// handles and routes every hook to the metrics registry and the global
/// wave tracer.
class WorkflowTelemetry {
 public:
  WorkflowTelemetry() = default;
  WorkflowTelemetry(const WorkflowTelemetry&) = delete;
  WorkflowTelemetry& operator=(const WorkflowTelemetry&) = delete;

  /// \brief Resolve per-actor instruments against the global registry and
  /// register trace tracks for every actor of `workflow`, in a table
  /// indexed by Actor::slot(); once bound, a hook for an actor of any other
  /// workflow CWF_CHECK-fails. No-op when telemetry is compiled out.
  void Bind(const Workflow& workflow, const char* director_kind);

  /// \brief Resolve the per-channel receiver instruments for the channel
  /// into `port_name` (channel > 0 gets a "#<channel>" suffix). Returns
  /// nullptr when telemetry is compiled out. Stable for the process
  /// lifetime; independent of Bind().
  const ReceiverProbe* CreateReceiverProbe(const std::string& port_name,
                                           size_t channel);

  // ---- Hot-path hooks ----

  /// \brief A firing completed. Metrics and trace spans when the
  /// respective toggles are on.
  void RecordFiring(const FiringRecord& record);

  /// \brief `n` events were queued toward `actor` (a window the SCWF
  /// scheduler admitted).
  void RecordArrival(const Actor* actor, size_t n);

  /// \brief The scheduler picked `chosen` at `now` with `queued_events`
  /// events queued engine-wide.
  void RecordDecision(const Actor* chosen, size_t queued_events,
                      Timestamp now);

  /// \brief A producer's firing was deferred because a plan-bounded
  /// downstream queue is full (simulated-thread PNCWF backpressure).
  void RecordBackpressureDeferral(const Actor* actor);

  /// \brief One event was stamped and broadcast to `fanout` receivers
  /// (Director::FlushActorOutputs). Births waves in the tracer.
  void RecordEmit(const CWEvent& event, size_t fanout) {
#ifdef CWF_OBS_ENABLED
    if (TracingEnabled()) {
      GlobalTracer().OnEventEmitted(event.wave, event.timestamp, fanout);
    }
#else
    (void)event;
    (void)fanout;
#endif
  }

  /// \brief Trace track (tid) of `actor`; 0 when unknown / unbound.
  uint32_t TrackFor(const Actor* actor) const;

  /// \brief Host-profiler cells of one actor's firing phases, resolved at
  /// Bind. All-null when the actor is unbound or telemetry is compiled out
  /// (CWF_PROFILE_SCOPE(nullptr) is inert, so callers never branch).
  struct ActorProfileSites {
    const ProfileSite* prefire = nullptr;
    const ProfileSite* fire = nullptr;
    const ProfileSite* postfire = nullptr;
  };
  ActorProfileSites ProfileSitesFor(const Actor* actor) const;

 private:
  /// Instrument handles of one actor, resolved at Bind.
  struct ActorInstruments {
    const Actor* actor = nullptr;  ///< owner of this slot
    Counter* firings = nullptr;
    Histogram* cost_us = nullptr;
    Counter* consumed = nullptr;
    Counter* emitted = nullptr;
    Counter* arrived = nullptr;
    Counter* decisions = nullptr;
    Counter* deferrals = nullptr;
    uint32_t tid = 0;  ///< processing-track id in the global tracer
    ActorProfileSites profile;  ///< host-profiler cells (obs/profile.h)
  };

  /// `actor`'s instruments; nullptr while unbound (or compiled out).
  const ActorInstruments* Find(const Actor* actor) const;

  /// Indexed by Actor::slot(). Read-only after Bind (PNCWF actor threads
  /// look up concurrently).
  std::vector<ActorInstruments> actors_;
  Histogram* ready_queue_events_ = nullptr;  ///< cwf_sched_ready_events
};

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_TELEMETRY_H_

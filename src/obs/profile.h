// Host-time profiler: attribute wall-clock host time to engine phases,
// per (actor, phase), with per-wave critical-path attribution on top of the
// wave-lineage tracer.
//
// Design:
//  * A fixed phase taxonomy (scheduler dispatch, receiver put/get,
//    prefire/fire/postfire, wave open/close, allocation,
//    blocked-on-backpressure, serialization) — every hot-path hook names one
//    phase, so the decomposition is comparable across directors and runs.
//  * Scoped measurement (ScopedProfilePhase / CWF_PROFILE_SCOPE) with
//    SELF-TIME semantics: a nested scope's duration is subtracted from its
//    enclosing scope, so summing every (actor, phase) cell approximates the
//    instrumented wall time without double counting (the "decomposition sums
//    to wall" invariant tests/obs/profile_test.cpp locks in).
//  * Thread-local ring buffers: a closing scope appends one fixed-size
//    sample to its thread's ring; the ring drains into the sharded
//    MetricsRegistry counters (relaxed atomics, no lock) when full, when the
//    thread exits, or on FlushCurrentThread(). The hot path never takes the
//    registry lock — sites are resolved once, at Director::Initialize.
//  * Compile-out: hook sites vanish when CONFLUENCE_OBS is OFF (macro
//    CWF_PROFILE_SCOPE expands to nothing); at runtime a single relaxed
//    atomic gate (SetProfilingEnabled, default OFF) keeps the cost of a
//    compiled-in but disabled profiler to one load per scope.
//
// Aggregates land in MetricsRegistry::Global() as one counter family per
// phase (`cwf_profile_<phase>_ns_total{actor=...}` plus a sample counter)
// and export through the MetricsServer's /profile and /profile.json
// endpoints next to the regular exposition.

#ifndef CONFLUENCE_OBS_PROFILE_H_
#define CONFLUENCE_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cwf::obs {

class WaveTracer;

// ---------------------------------------------------------------------------
// Phase taxonomy
// ---------------------------------------------------------------------------

/// \brief The fixed set of engine phases host time is attributed to.
enum class ProfilePhase : uint8_t {
  kSchedulerDispatch = 0,  ///< scheduler pick + director loop bookkeeping
  kReceiverPut,            ///< depositing an event into a receiver
  kReceiverGet,            ///< retrieving a window from a receiver
  kPrefire,                ///< window delivery + prefire evaluation
  kFire,                   ///< actor fire() proper (self time)
  kPostfire,               ///< postfire()
  kWaveOpen,               ///< stamping/broadcast bookkeeping of new events
  kWaveClose,              ///< the tracer's firing record (an append)
  kAllocation,             ///< wave/token/output-buffer allocation
  kBlocked,                ///< producer blocked on backpressure (Put wait)
  kSerialization,          ///< wire encode/decode + exposition rendering
};

inline constexpr size_t kProfilePhaseCount = 11;

/// \brief Stable lowercase slug ("scheduler_dispatch", "fire", ...) used in
/// metric names, /profile rows and BENCH_*.json keys.
const char* ProfilePhaseName(ProfilePhase phase);

/// \brief All phases in declaration order (iteration helper).
ProfilePhase ProfilePhaseAt(size_t index);

// ---------------------------------------------------------------------------
// Runtime toggle (independent of the CONFLUENCE_OBS compile-time gate).
// Default OFF: profiling spends two clock reads per scope, so it is opt-in
// per process (cwf_lrb_serve --profile, SetProfilingEnabled in code).
// ---------------------------------------------------------------------------

bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

/// \brief Monotonic nanosecond clock the profiler stamps scopes with.
int64_t ProfileClockNanos();

// ---------------------------------------------------------------------------
// Sites and scopes
// ---------------------------------------------------------------------------

/// \brief One (actor label, phase) aggregation cell. Counter pointers are
/// stable for the process lifetime (registry-owned); a ring flush folds the
/// thread's samples into them with relaxed atomics.
struct ProfileSite {
  Counter* self_ns = nullptr;  ///< cwf_profile_<phase>_ns_total{actor}
  Counter* samples = nullptr;  ///< cwf_profile_<phase>_samples_total{actor}
};

/// \brief Process-wide site resolver + thread-ring management. Sites are
/// resolved at bind time (Director::Initialize via WorkflowTelemetry), never
/// on the hot path.
class Profiler {
 public:
  /// \brief The engine-wide profiler every director feeds.
  static Profiler& Global();

  /// \brief Resolve (and memoize) the aggregation cell for `actor` x
  /// `phase`. Stable for the process lifetime. `actor` is an actor name or
  /// a pseudo-label ("<scheduler>", "<ingest>", "<export>").
  const ProfileSite* Site(const std::string& actor, ProfilePhase phase);

  /// \brief Drain the calling thread's sample ring into the registry
  /// counters. Threads flush automatically when the ring fills and at
  /// thread exit; call this before reading aggregates on another thread.
  static void FlushCurrentThread();

  /// \brief Credit `ns` of already-measured host time to `site` without a
  /// scope (used for externally timed waits). Participates in the calling
  /// thread's ring like a scope would, but never in nesting.
  static void RecordExternal(const ProfileSite* site, int64_t ns);

  /// \brief Add `ns` to the instrumented-wall-time counter
  /// (cwf_profile_wall_ns_total) that /profile divides the decomposition
  /// by. Directors' run loops report their wall time here.
  static void AddWallNanos(int64_t ns);

 private:
  Profiler() = default;

  mutable OrderedMutex mutex_{"obs::Profiler::mutex"};
  std::map<std::pair<std::string, uint8_t>, ProfileSite> sites_
      CWF_GUARDED_BY(mutex_);
};

/// \brief RAII phase scope with self-time semantics. A scope built with a
/// null site, or while profiling is disabled, is inert (one relaxed load).
/// Scopes must strictly nest per thread (they are stack objects, so they
/// do).
class ScopedProfilePhase {
 public:
  explicit ScopedProfilePhase(const ProfileSite* site);
  ~ScopedProfilePhase();

  ScopedProfilePhase(const ScopedProfilePhase&) = delete;
  ScopedProfilePhase& operator=(const ScopedProfilePhase&) = delete;

 private:
  bool active_;
};

/// \brief RAII wall-time reporter for a director run loop: adds the scope's
/// host duration to cwf_profile_wall_ns_total when profiling is enabled.
class ScopedProfileWall {
 public:
  ScopedProfileWall();
  ~ScopedProfileWall();

  ScopedProfileWall(const ScopedProfileWall&) = delete;
  ScopedProfileWall& operator=(const ScopedProfileWall&) = delete;

 private:
  int64_t start_ns_;
};

// The hook-site macro: compiles to nothing when telemetry is off, so an
// -DCONFLUENCE_OBS=OFF build carries zero profiler hooks.
#ifdef CWF_OBS_ENABLED
#define CWF_PROFILE_CONCAT_INNER(a, b) a##b
#define CWF_PROFILE_CONCAT(a, b) CWF_PROFILE_CONCAT_INNER(a, b)
#define CWF_PROFILE_SCOPE(site)                   \
  ::cwf::obs::ScopedProfilePhase CWF_PROFILE_CONCAT( \
      cwf_profile_scope_, __LINE__)(site)
#define CWF_PROFILE_WALL_SCOPE()                     \
  ::cwf::obs::ScopedProfileWall CWF_PROFILE_CONCAT( \
      cwf_profile_wall_, __LINE__)
#else
#define CWF_PROFILE_SCOPE(site) static_cast<void>(0)
#define CWF_PROFILE_WALL_SCOPE() static_cast<void>(0)
#endif

// ---------------------------------------------------------------------------
// Snapshot + rendering (the /profile endpoint and cwf_top --profile)
// ---------------------------------------------------------------------------

/// \brief One aggregated (actor, phase) row.
struct ProfileEntry {
  std::string actor;
  ProfilePhase phase = ProfilePhase::kFire;
  uint64_t self_ns = 0;
  uint64_t samples = 0;
};

struct ProfileSnapshot {
  std::vector<ProfileEntry> entries;  ///< sorted by self_ns descending
  uint64_t wall_ns = 0;               ///< cwf_profile_wall_ns_total
  /// Fraction of wall_ns the entries cover (0 when wall_ns == 0).
  double CoverageFraction() const;
  /// Total self time per phase, µs (BENCH_*.json host_phase_us section).
  std::map<std::string, double> PhaseTotalsUs() const;
};

/// \brief Read every profile counter out of `registry`. Flushes the calling
/// thread's ring first.
ProfileSnapshot SnapshotProfile(MetricsRegistry& registry);

/// \brief TSV: "# wall_us N", "# coverage_pct P", header, one row per
/// (actor, phase) — the machine-readable side consumed by cwf_top
/// --profile.
std::string RenderProfileText(const ProfileSnapshot& snapshot);

/// \brief JSON: {"wall_us":..,"coverage_pct":..,"entries":[...]}.
std::string RenderProfileJson(const ProfileSnapshot& snapshot);

// ---------------------------------------------------------------------------
// Per-wave critical-path attribution
// ---------------------------------------------------------------------------

/// \brief One contributor on the aggregated critical path: an actor's
/// processing spans or its queueing spans (the channel wait feeding it).
struct CriticalPathContributor {
  std::string actor;
  bool queueing = false;  ///< true: time queued toward `actor`
  int64_t total_us = 0;   ///< summed engine-time contribution across waves
  double share = 0;       ///< of the group's total birth→closure latency
};

/// \brief All analyzed waves that terminated at one actor (for LRB: the
/// query type — TollNotification vs AccidentNotificationOut).
struct CriticalPathGroup {
  std::string terminal_actor;
  uint64_t waves = 0;
  int64_t total_latency_us = 0;  ///< summed birth→closure across the group
  std::vector<CriticalPathContributor> top;  ///< descending, <= top_n
};

struct CriticalPathReport {
  std::vector<CriticalPathGroup> groups;  ///< by total_latency_us descending
  uint64_t waves_analyzed = 0;
  /// Closed waves dropped because ring wraparound evicted their birth (or
  /// any earlier span): counted, never attributed partially. Mirrored into
  /// the cwf_trace_truncated_waves gauge.
  uint64_t truncated_waves = 0;
};

/// \brief Aggregate the dominating contributors of each closed wave's
/// birth→closure chain, as the tracer's replay rebuilt it
/// (WaveTracer::Replay), top `top_n` per terminal actor. Waves whose birth
/// or any firing's begin the ring overwrote are dropped and counted
/// (cwf_trace_truncated_waves), not partially attributed.
CriticalPathReport ComputeCriticalPaths(const WaveTracer& tracer,
                                        size_t top_n = 3);

std::string RenderCriticalPathText(const CriticalPathReport& report);
std::string RenderCriticalPathJson(const CriticalPathReport& report);

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_PROFILE_H_

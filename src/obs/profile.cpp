#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/trace_buffer.h"

namespace cwf::obs {
namespace {

std::atomic<bool> g_profiling_enabled{false};

constexpr const char* kPhaseNames[kProfilePhaseCount] = {
    "scheduler_dispatch", "receiver_put", "receiver_get", "prefire",
    "fire",               "postfire",     "wave_open",    "wave_close",
    "allocation",         "blocked",      "serialization",
};

constexpr const char* kWallCounterName = "cwf_profile_wall_ns_total";

std::string PhaseNsMetricName(ProfilePhase phase) {
  return std::string("cwf_profile_") + ProfilePhaseName(phase) + "_ns_total";
}

std::string PhaseSamplesMetricName(ProfilePhase phase) {
  return std::string("cwf_profile_") + ProfilePhaseName(phase) +
         "_samples_total";
}

std::string JsonEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatPct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", fraction * 100.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Thread-local measurement state: a strict-nesting frame stack (self-time
// accounting) plus a bounded sample ring drained into the registry counters
// when full and at thread exit. Everything here is single-thread private;
// the only cross-thread operations are the relaxed Counter::Add calls in
// Flush.
// ---------------------------------------------------------------------------

constexpr size_t kMaxFrameDepth = 32;
constexpr size_t kSampleRingSize = 256;

struct Frame {
  const ProfileSite* site = nullptr;
  int64_t start_ns = 0;
  int64_t child_ns = 0;  ///< summed duration of directly nested scopes
};

struct Sample {
  const ProfileSite* site = nullptr;
  int64_t self_ns = 0;
};

struct ThreadState {
  Frame frames[kMaxFrameDepth];
  size_t depth = 0;
  Sample ring[kSampleRingSize];
  size_t ring_size = 0;

  ~ThreadState() { Flush(); }

  void Flush() {
    for (size_t i = 0; i < ring_size; ++i) {
      const Sample& s = ring[i];
      s.site->self_ns->Add(static_cast<uint64_t>(s.self_ns));
      s.site->samples->Add(1);
    }
    ring_size = 0;
  }

  void Push(const ProfileSite* site, int64_t self_ns) {
    if (ring_size == kSampleRingSize) {
      Flush();
    }
    ring[ring_size].site = site;
    ring[ring_size].self_ns = self_ns;
    ++ring_size;
  }
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// Taxonomy + toggles
// ---------------------------------------------------------------------------

const char* ProfilePhaseName(ProfilePhase phase) {
  const size_t i = static_cast<size_t>(phase);
  return i < kProfilePhaseCount ? kPhaseNames[i] : "unknown";
}

ProfilePhase ProfilePhaseAt(size_t index) {
  return static_cast<ProfilePhase>(index);
}

bool ProfilingEnabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t ProfileClockNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler& Profiler::Global() {
  static Profiler profiler;
  return profiler;
}

const ProfileSite* Profiler::Site(const std::string& actor,
                                  ProfilePhase phase) {
  ScopedLock lock(mutex_);
  auto key = std::make_pair(actor, static_cast<uint8_t>(phase));
  auto it = sites_.find(key);
  if (it != sites_.end()) {
    return &it->second;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  ProfileSite site;
  site.self_ns = registry.GetCounter(PhaseNsMetricName(phase), "actor", actor);
  site.samples =
      registry.GetCounter(PhaseSamplesMetricName(phase), "actor", actor);
  registry.SetHelp(PhaseNsMetricName(phase),
                   std::string("Host self-time (ns) spent in the ") +
                       ProfilePhaseName(phase) + " phase, per actor.");
  registry.SetHelp(PhaseSamplesMetricName(phase),
                   std::string("Profiled scope count for the ") +
                       ProfilePhaseName(phase) + " phase, per actor.");
  auto [inserted, ok] = sites_.emplace(std::move(key), site);
  static_cast<void>(ok);
  return &inserted->second;
}

void Profiler::FlushCurrentThread() { State().Flush(); }

void Profiler::RecordExternal(const ProfileSite* site, int64_t ns) {
  if (site == nullptr || ns <= 0 || !ProfilingEnabled()) {
    return;
  }
  State().Push(site, ns);
}

void Profiler::AddWallNanos(int64_t ns) {
  if (ns <= 0) {
    return;
  }
  static Counter* wall = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.SetHelp(kWallCounterName,
                     "Host wall time (ns) covered by profiled director runs.");
    return registry.GetCounter(kWallCounterName);
  }();
  wall->Add(static_cast<uint64_t>(ns));
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

ScopedProfilePhase::ScopedProfilePhase(const ProfileSite* site)
    : active_(false) {
  if (site == nullptr || !ProfilingEnabled()) {
    return;
  }
  ThreadState& state = State();
  if (state.depth == kMaxFrameDepth) {
    return;
  }
  Frame& frame = state.frames[state.depth++];
  frame.site = site;
  frame.child_ns = 0;
  frame.start_ns = ProfileClockNanos();
  active_ = true;
}

ScopedProfilePhase::~ScopedProfilePhase() {
  if (!active_) {
    return;
  }
  ThreadState& state = State();
  Frame& frame = state.frames[--state.depth];
  const int64_t duration = ProfileClockNanos() - frame.start_ns;
  const int64_t self = std::max<int64_t>(0, duration - frame.child_ns);
  if (state.depth > 0) {
    state.frames[state.depth - 1].child_ns += duration;
  }
  state.Push(frame.site, self);
}

ScopedProfileWall::ScopedProfileWall()
    : start_ns_(ProfilingEnabled() ? ProfileClockNanos() : -1) {}

ScopedProfileWall::~ScopedProfileWall() {
  if (start_ns_ < 0) {
    return;
  }
  Profiler::AddWallNanos(ProfileClockNanos() - start_ns_);
  Profiler::FlushCurrentThread();
}

// ---------------------------------------------------------------------------
// Snapshot + rendering
// ---------------------------------------------------------------------------

double ProfileSnapshot::CoverageFraction() const {
  if (wall_ns == 0) {
    return 0;
  }
  uint64_t covered = 0;
  for (const ProfileEntry& e : entries) {
    covered += e.self_ns;
  }
  return static_cast<double>(covered) / static_cast<double>(wall_ns);
}

std::map<std::string, double> ProfileSnapshot::PhaseTotalsUs() const {
  std::map<std::string, double> totals;
  for (const ProfileEntry& e : entries) {
    totals[ProfilePhaseName(e.phase)] += static_cast<double>(e.self_ns) / 1e3;
  }
  return totals;
}

ProfileSnapshot SnapshotProfile(MetricsRegistry& registry) {
  Profiler::FlushCurrentThread();
  ProfileSnapshot snapshot;
  snapshot.wall_ns = registry.GetCounter(kWallCounterName)->Value();
  for (size_t i = 0; i < kProfilePhaseCount; ++i) {
    const ProfilePhase phase = ProfilePhaseAt(i);
    const std::string ns_name = PhaseNsMetricName(phase);
    const std::string samples_name = PhaseSamplesMetricName(phase);
    for (const std::string& actor : registry.LabelValues(ns_name)) {
      ProfileEntry entry;
      entry.actor = actor;
      entry.phase = phase;
      entry.self_ns = registry.GetCounter(ns_name, "actor", actor)->Value();
      entry.samples =
          registry.GetCounter(samples_name, "actor", actor)->Value();
      if (entry.self_ns == 0 && entry.samples == 0) {
        continue;
      }
      snapshot.entries.push_back(std::move(entry));
    }
  }
  std::sort(snapshot.entries.begin(), snapshot.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              if (a.actor != b.actor) return a.actor < b.actor;
              return a.phase < b.phase;
            });
  return snapshot;
}

std::string RenderProfileText(const ProfileSnapshot& snapshot) {
  std::ostringstream out;
  out << "# wall_us " << snapshot.wall_ns / 1000 << "\n";
  out << "# coverage_pct " << FormatPct(snapshot.CoverageFraction()) << "\n";
  out << "actor\tphase\tself_us\tsamples\tpct_wall\n";
  for (const ProfileEntry& e : snapshot.entries) {
    const double pct_wall =
        snapshot.wall_ns == 0
            ? 0
            : static_cast<double>(e.self_ns) /
                  static_cast<double>(snapshot.wall_ns);
    out << e.actor << '\t' << ProfilePhaseName(e.phase) << '\t'
        << e.self_ns / 1000 << '\t' << e.samples << '\t'
        << FormatPct(pct_wall) << "\n";
  }
  return out.str();
}

std::string RenderProfileJson(const ProfileSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"wall_us\":" << snapshot.wall_ns / 1000 << ",\"coverage_pct\":"
      << FormatPct(snapshot.CoverageFraction()) << ",\"entries\":[";
  bool first = true;
  for (const ProfileEntry& e : snapshot.entries) {
    if (!first) out << ',';
    first = false;
    out << "{\"actor\":\"" << JsonEscape(e.actor) << "\",\"phase\":\""
        << ProfilePhaseName(e.phase) << "\",\"self_us\":" << e.self_ns / 1000
        << ",\"samples\":" << e.samples << '}';
  }
  out << "]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

namespace {

struct GroupScratch {
  uint64_t waves = 0;
  int64_t total_latency_us = 0;
  std::map<std::pair<std::string, bool>, int64_t> contributors;
};

}  // namespace

CriticalPathReport ComputeCriticalPaths(const WaveTracer& tracer,
                                        size_t top_n) {
  const TraceReplay replay = tracer.Replay();
  const std::vector<std::string> tracks = tracer.TrackNames();
  const auto track_name = [&tracks](uint32_t tid) -> std::string {
    const size_t index = (tid - 10) / 2;
    if (index < tracks.size()) {
      return tracks[index];
    }
    return "<track " + std::to_string(tid) + ">";
  };

  // Aggregate attributable waves per terminal actor.
  CriticalPathReport report;
  std::map<std::string, GroupScratch> groups;
  for (const WaveChain& wave : replay.waves) {
    if (!wave.closed) {
      continue;  // still in flight; neither analyzed nor truncated
    }
    if (!wave.attributable) {
      ++report.truncated_waves;
      continue;
    }
    ++report.waves_analyzed;
    GroupScratch& group = groups[track_name(wave.terminal_tid)];
    ++group.waves;
    group.total_latency_us += wave.latency_us;
    for (const auto& [span_key, us] : wave.spans) {
      const auto& [tid, queueing] = span_key;
      group.contributors[{track_name(tid), queueing}] += us;
    }
  }

  for (auto& [terminal, scratch] : groups) {
    CriticalPathGroup group;
    group.terminal_actor = terminal;
    group.waves = scratch.waves;
    group.total_latency_us = scratch.total_latency_us;
    std::vector<CriticalPathContributor> ranked;
    ranked.reserve(scratch.contributors.size());
    for (const auto& [key, us] : scratch.contributors) {
      CriticalPathContributor c;
      c.actor = key.first;
      c.queueing = key.second;
      c.total_us = us;
      c.share = scratch.total_latency_us > 0
                    ? static_cast<double>(us) /
                          static_cast<double>(scratch.total_latency_us)
                    : 0;
      ranked.push_back(std::move(c));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const CriticalPathContributor& a,
                 const CriticalPathContributor& b) {
                if (a.total_us != b.total_us) return a.total_us > b.total_us;
                if (a.actor != b.actor) return a.actor < b.actor;
                return a.queueing < b.queueing;
              });
    if (ranked.size() > top_n) {
      ranked.resize(top_n);
    }
    group.top = std::move(ranked);
    report.groups.push_back(std::move(group));
  }
  std::sort(report.groups.begin(), report.groups.end(),
            [](const CriticalPathGroup& a, const CriticalPathGroup& b) {
              if (a.total_latency_us != b.total_latency_us) {
                return a.total_latency_us > b.total_latency_us;
              }
              return a.terminal_actor < b.terminal_actor;
            });

#ifdef CWF_OBS_ENABLED
  // Mirror the truncation count so scrapes see it without recomputing the
  // report; Set (not Add) keeps recomputation idempotent.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.SetHelp("cwf_trace_truncated_waves",
                   "Closed waves dropped from critical-path attribution "
                   "because trace-ring wraparound evicted their birth span.");
  registry.GetGauge("cwf_trace_truncated_waves")
      ->Set(static_cast<int64_t>(report.truncated_waves));
#endif
  return report;
}

std::string RenderCriticalPathText(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "# waves_analyzed " << report.waves_analyzed << "\n";
  out << "# truncated_waves " << report.truncated_waves << "\n";
  for (const CriticalPathGroup& group : report.groups) {
    const int64_t mean_us =
        group.waves > 0
            ? group.total_latency_us / static_cast<int64_t>(group.waves)
            : 0;
    out << "terminal=" << group.terminal_actor << " waves=" << group.waves
        << " mean_latency_us=" << mean_us << "\n";
    size_t rank = 1;
    for (const CriticalPathContributor& c : group.top) {
      out << "  " << rank++ << ". " << c.actor << ' '
          << (c.queueing ? "queueing" : "processing") << ' ' << c.total_us
          << "us " << FormatPct(c.share) << "%\n";
    }
  }
  return out.str();
}

std::string RenderCriticalPathJson(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "{\"waves_analyzed\":" << report.waves_analyzed
      << ",\"truncated_waves\":" << report.truncated_waves << ",\"groups\":[";
  bool first_group = true;
  for (const CriticalPathGroup& group : report.groups) {
    if (!first_group) out << ',';
    first_group = false;
    out << "{\"terminal\":\"" << JsonEscape(group.terminal_actor)
        << "\",\"waves\":" << group.waves
        << ",\"total_latency_us\":" << group.total_latency_us
        << ",\"contributors\":[";
    bool first = true;
    for (const CriticalPathContributor& c : group.top) {
      if (!first) out << ',';
      first = false;
      out << "{\"actor\":\"" << JsonEscape(c.actor) << "\",\"kind\":\""
          << (c.queueing ? "queueing" : "processing")
          << "\",\"total_us\":" << c.total_us
          << ",\"share_pct\":" << FormatPct(c.share) << '}';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace cwf::obs

// Host-time profiler: self-time nesting, thread-local ring merging,
// runtime toggling, the decomposition-sums-to-wall invariant, and
// critical-path attribution (including the ring-wraparound truncation
// contract) — see src/obs/profile.h.

#include "obs/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wave.h"
#include "lrb/harness.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace cwf::obs {
namespace {

/// Busy-spins until at least `ns` nanoseconds of the profiler clock have
/// elapsed (sleeps are too coarse to make self-time assertions reliable).
void SpinFor(int64_t ns) {
  const int64_t until = ProfileClockNanos() + ns;
  while (ProfileClockNanos() < until) {
  }
}

uint64_t CounterValue(const ProfileSite* site) {
  Profiler::FlushCurrentThread();
  return site->self_ns->Value();
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override { SetProfilingEnabled(true); }
  void TearDown() override { SetProfilingEnabled(false); }
};

TEST_F(ProfileTest, PhaseTaxonomyNamesAreStable) {
  EXPECT_STREQ("scheduler_dispatch",
               ProfilePhaseName(ProfilePhase::kSchedulerDispatch));
  EXPECT_STREQ("fire", ProfilePhaseName(ProfilePhase::kFire));
  EXPECT_STREQ("blocked", ProfilePhaseName(ProfilePhase::kBlocked));
  for (size_t i = 0; i < kProfilePhaseCount; ++i) {
    EXPECT_NE(nullptr, ProfilePhaseName(ProfilePhaseAt(i)));
  }
}

TEST_F(ProfileTest, SiteResolutionIsMemoized) {
  const ProfileSite* a = Profiler::Global().Site("memo", ProfilePhase::kFire);
  const ProfileSite* b = Profiler::Global().Site("memo", ProfilePhase::kFire);
  ASSERT_NE(nullptr, a);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Profiler::Global().Site("memo", ProfilePhase::kPrefire));
}

TEST_F(ProfileTest, NestedScopeTimeIsSubtractedFromParent) {
  const ProfileSite* outer =
      Profiler::Global().Site("nest_outer", ProfilePhase::kFire);
  const ProfileSite* inner =
      Profiler::Global().Site("nest_inner", ProfilePhase::kReceiverPut);
  constexpr int64_t kOuterNs = 4'000'000;
  constexpr int64_t kInnerNs = 8'000'000;
  const int64_t total_start = ProfileClockNanos();
  {
    ScopedProfilePhase outer_scope(outer);
    SpinFor(kOuterNs);
    {
      ScopedProfilePhase inner_scope(inner);
      SpinFor(kInnerNs);
    }
  }
  const int64_t total_ns = ProfileClockNanos() - total_start;
  const uint64_t outer_ns = CounterValue(outer);
  const uint64_t inner_ns = CounterValue(inner);
  // With self-time semantics the outer cell must NOT include the inner's
  // duration: outer_self = outer_dur - inner_dur <= total - kInnerNs. The
  // bound is relative to the measured total, so preemption by other test
  // binaries cannot break it (outer_dur <= total, inner_dur >= kInnerNs).
  EXPECT_GE(inner_ns, static_cast<uint64_t>(kInnerNs));
  EXPECT_GE(outer_ns, static_cast<uint64_t>(kOuterNs));
  EXPECT_LE(outer_ns, static_cast<uint64_t>(total_ns - kInnerNs));
  EXPECT_LE(outer_ns + inner_ns, static_cast<uint64_t>(total_ns));
}

TEST_F(ProfileTest, ThreadLocalRingsMergeAcrossThreads) {
  const ProfileSite* site =
      Profiler::Global().Site("merge", ProfilePhase::kFire);
  const uint64_t samples_before = site->samples->Value();
  constexpr int kThreads = 4;
  // Exceeds the thread-local ring capacity, forcing mid-run flushes on
  // every thread, not just the exit flush.
  constexpr int kScopesPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([site] {
      for (int i = 0; i < kScopesPerThread; ++i) {
        ScopedProfilePhase scope(site);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Joined threads have flushed their rings via thread-local destructors.
  EXPECT_EQ(samples_before + kThreads * kScopesPerThread,
            site->samples->Value());
}

TEST_F(ProfileTest, DisabledProfilerRecordsNothing) {
  const ProfileSite* site =
      Profiler::Global().Site("toggle", ProfilePhase::kFire);
  SetProfilingEnabled(false);
  {
    ScopedProfilePhase scope(site);
    SpinFor(1'000'000);
  }
  Profiler::FlushCurrentThread();
  EXPECT_EQ(0u, site->samples->Value());
  EXPECT_EQ(0u, site->self_ns->Value());

  SetProfilingEnabled(true);
  {
    ScopedProfilePhase scope(site);
    SpinFor(1'000'000);
  }
  Profiler::FlushCurrentThread();
  EXPECT_EQ(1u, site->samples->Value());
  EXPECT_GT(site->self_ns->Value(), 0u);
}

TEST_F(ProfileTest, NullSiteScopeIsInert) {
  ScopedProfilePhase scope(nullptr);  // must not crash or record
}

TEST_F(ProfileTest, DecompositionSumsApproximatelyToWall) {
  const ProfileSite* work =
      Profiler::Global().Site("wallcov", ProfilePhase::kFire);
  const ProfileSnapshot before = SnapshotProfile(MetricsRegistry::Global());
  const uint64_t work_before = work->self_ns->Value();
  {
    ScopedProfileWall wall;
    for (int i = 0; i < 20; ++i) {
      ScopedProfilePhase scope(work);
      SpinFor(1'000'000);
    }
  }
  const ProfileSnapshot after = SnapshotProfile(MetricsRegistry::Global());
  const uint64_t wall_delta = after.wall_ns - before.wall_ns;
  const uint64_t work_delta = work->self_ns->Value() - work_before;
  ASSERT_GT(wall_delta, 0u);
  // Everything inside the wall scope ran under a phase scope, so the
  // decomposition must cover the bulk of the wall (the gap is loop
  // overhead plus any preemption landing between scopes) and never
  // exceed it.
  EXPECT_GE(work_delta, wall_delta * 4 / 5);
  EXPECT_LE(work_delta, wall_delta);
}

TEST_F(ProfileTest, HierarchicalLrbShowsInnerDirectorCells) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  // Accident detection runs as a DDF composite: its inner actors must get
  // their own fire cells (Director::FireOnce) instead of vanishing into the
  // composite's, and the decomposition must still cover the run's wall.
  using Cell = std::pair<std::string, ProfilePhase>;
  const auto self_ns = [](const ProfileSnapshot& snapshot) {
    std::map<Cell, uint64_t> cells;
    for (const ProfileEntry& e : snapshot.entries) {
      cells[{e.actor, e.phase}] = e.self_ns;
    }
    return cells;
  };
  const ProfileSnapshot before = SnapshotProfile(MetricsRegistry::Global());
  lrb::ExperimentOptions opt;
  opt.scheduler = lrb::SchedulerKind::kQBS;
  opt.hierarchical = true;
  opt.workload.duration = Seconds(180);
  opt.workload.initial_rate = 12.0;
  opt.workload.rate_slope_per_sec = 0.0;
  opt.workload.mean_accident_gap = 20.0;
  auto res = lrb::RunLRBExperiment(opt);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  ASSERT_GT(res->accidents_recorded, 0u);
  const ProfileSnapshot after = SnapshotProfile(MetricsRegistry::Global());

  std::map<Cell, uint64_t> delta = self_ns(after);
  for (const auto& [cell, ns] : self_ns(before)) {
    delta[cell] -= ns;
  }
  EXPECT_GT(delta[Cell("DetectStoppedCars", ProfilePhase::kFire)], 0u);
  EXPECT_GT(delta[Cell("DetectAccidents", ProfilePhase::kFire)], 0u);
  uint64_t covered = 0;
  for (const auto& [cell, ns] : delta) {
    covered += ns;
  }
  const uint64_t wall = after.wall_ns - before.wall_ns;
  ASSERT_GT(wall, 0u);
  EXPECT_GE(covered, wall * 4 / 5);
  EXPECT_LE(covered, wall);
}

TEST_F(ProfileTest, SnapshotRendersTsvAndJson) {
  const ProfileSite* site =
      Profiler::Global().Site("render", ProfilePhase::kSerialization);
  {
    ScopedProfilePhase scope(site);
    SpinFor(100'000);
  }
  const ProfileSnapshot snapshot = SnapshotProfile(MetricsRegistry::Global());
  const std::string text = RenderProfileText(snapshot);
  EXPECT_NE(std::string::npos, text.find("# wall_us "));
  EXPECT_NE(std::string::npos,
            text.find("actor\tphase\tself_us\tsamples\tpct_wall"));
  EXPECT_NE(std::string::npos, text.find("render\tserialization\t"));
  const std::string json = RenderProfileJson(snapshot);
  EXPECT_NE(std::string::npos, json.find("\"coverage_pct\""));
  EXPECT_NE(std::string::npos, json.find("\"render\""));
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

TEST(CriticalPathTest, GoldenThreeActorChain) {
  WaveTracer tracer;
  const uint32_t a = tracer.RegisterTrack("A");
  const uint32_t b = tracer.RegisterTrack("B");
  const uint32_t c = tracer.RegisterTrack("C");
  // One wave: born at t=0, A [50,200], B [300,600], C [800,1800] (closure).
  // Queueing spans: A waits 50, B waits 100, C waits 200. Emissions stamp a
  // child tag BEFORE the firing is recorded (FlushActorOutputs runs inside
  // the firing), keeping the wave in flight until C consumes the last one.
  const WaveTag wave = WaveTag::Root(1);
  tracer.OnEventEmitted(wave, Timestamp(0), 1);
  tracer.OnEventEmitted(wave.Child(1), Timestamp(200), 1);
  tracer.OnFiring(a, &wave, Timestamp(50), Timestamp(200), 1, 1);
  tracer.OnEventEmitted(wave.Child(2), Timestamp(600), 1);
  tracer.OnFiring(b, &wave, Timestamp(300), Timestamp(600), 1, 1);
  tracer.OnFiring(c, &wave, Timestamp(800), Timestamp(1800), 1, 0);
  ASSERT_EQ(1u, tracer.waves_closed());

  const CriticalPathReport report = ComputeCriticalPaths(tracer, 3);
  EXPECT_EQ(1u, report.waves_analyzed);
  EXPECT_EQ(0u, report.truncated_waves);
  ASSERT_EQ(1u, report.groups.size());
  const CriticalPathGroup& group = report.groups[0];
  EXPECT_EQ("C", group.terminal_actor);
  EXPECT_EQ(1u, group.waves);
  EXPECT_EQ(1800, group.total_latency_us);
  ASSERT_EQ(3u, group.top.size());
  // Descending: C processing 1000, B processing 300, C queueing 200.
  EXPECT_EQ("C", group.top[0].actor);
  EXPECT_FALSE(group.top[0].queueing);
  EXPECT_EQ(1000, group.top[0].total_us);
  EXPECT_NEAR(1000.0 / 1800.0, group.top[0].share, 1e-9);
  EXPECT_EQ("B", group.top[1].actor);
  EXPECT_FALSE(group.top[1].queueing);
  EXPECT_EQ(300, group.top[1].total_us);
  EXPECT_EQ("C", group.top[2].actor);
  EXPECT_TRUE(group.top[2].queueing);
  EXPECT_EQ(200, group.top[2].total_us);

  const std::string text = RenderCriticalPathText(report);
  EXPECT_NE(std::string::npos, text.find("terminal=C"));
  const std::string json = RenderCriticalPathJson(report);
  EXPECT_NE(std::string::npos, json.find("\"terminal\":\"C\""));
}

TEST(CriticalPathTest, WavesWithDistinctTerminalsFormSeparateGroups) {
  WaveTracer tracer;
  const uint32_t a = tracer.RegisterTrack("A");
  const uint32_t b = tracer.RegisterTrack("B");
  const WaveTag w1 = WaveTag::Root(1);
  const WaveTag w2 = WaveTag::Root(2);
  tracer.OnEventEmitted(w1, Timestamp(0), 1);
  tracer.OnEventEmitted(w2, Timestamp(0), 1);
  tracer.OnFiring(a, &w1, Timestamp(10), Timestamp(500), 1, 0);
  tracer.OnFiring(b, &w2, Timestamp(10), Timestamp(100), 1, 0);
  const CriticalPathReport report = ComputeCriticalPaths(tracer, 3);
  EXPECT_EQ(2u, report.waves_analyzed);
  ASSERT_EQ(2u, report.groups.size());
  // Groups sort by total latency: wave 1 (500us at A) dominates.
  EXPECT_EQ("A", report.groups[0].terminal_actor);
  EXPECT_EQ("B", report.groups[1].terminal_actor);
}

TEST(CriticalPathTest, WraparoundTruncatedWaveIsDroppedAndCounted) {
  // Ring of 8: the filler wave's spans evict wave 1's birth before wave 1
  // closes, so wave 1 must be dropped from attribution (a partial chain
  // would misattribute its latency) and surface in truncated_waves.
  WaveTracer tracer(8);
  const uint32_t a = tracer.RegisterTrack("A");
  const WaveTag w1 = WaveTag::Root(1);
  const WaveTag filler = WaveTag::Root(2);
  tracer.OnEventEmitted(w1, Timestamp(0), 1);
  tracer.OnEventEmitted(filler, Timestamp(1), 1);
  for (int i = 0; i < 4; ++i) {  // 4 firings x >=2 events >= capacity
    tracer.OnFiring(a, &filler, Timestamp(10 + 10 * i), Timestamp(15 + 10 * i),
                    1, 1);
  }
  tracer.OnFiring(a, &w1, Timestamp(100), Timestamp(200), 1, 0);
  // Both waves closed (the filler on its first firing, wave 1 at the end).
  ASSERT_EQ(2u, tracer.waves_closed());

  const CriticalPathReport report = ComputeCriticalPaths(tracer, 3);
  EXPECT_EQ(0u, report.waves_analyzed);
  EXPECT_EQ(1u, report.truncated_waves);
  EXPECT_TRUE(report.groups.empty());
#ifdef CWF_OBS_ENABLED
  Gauge* truncated = MetricsRegistry::Global().GetGauge(
      "cwf_trace_truncated_waves");
  ASSERT_NE(nullptr, truncated);
  EXPECT_EQ(1, truncated->Value());
#endif
}

}  // namespace
}  // namespace cwf::obs

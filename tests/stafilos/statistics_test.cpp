#include <gtest/gtest.h>

#include "actors/library.h"
#include "obs/metrics.h"
#include "sched_test_util.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/rb_scheduler.h"
#include "stafilos/statistics.h"

namespace cwf {
namespace {

using schedtest::PipelineRig;

Token Identity(const Token& t) { return t; }

struct Graph {
  Workflow wf{"g"};
  MapActor* a;
  MapActor* b;
  MapActor* c;

  Graph() {
    a = wf.AddActor<MapActor>("a", Identity);
    b = wf.AddActor<MapActor>("b", Identity);
    c = wf.AddActor<MapActor>("c", Identity);
    CWF_CHECK(wf.Connect(a->out(), b->in()).ok());
    CWF_CHECK(wf.Connect(b->out(), c->in()).ok());
  }
};

TEST(StatisticsTest, FiringAccumulation) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 100, 1, 2, Timestamp::Seconds(1));
  stats.OnFiring(g.a, 300, 1, 0, Timestamp::Seconds(2));
  const ActorStats& s = stats.Get(g.a);
  EXPECT_EQ(s.invocations, 2u);
  EXPECT_EQ(s.total_cost, 400);
  EXPECT_DOUBLE_EQ(s.AvgCost(), 200.0);
  EXPECT_EQ(s.events_consumed, 2u);
  EXPECT_EQ(s.events_produced, 2u);
  EXPECT_DOUBLE_EQ(s.Selectivity(), 1.0);
}

TEST(StatisticsTest, SelectivityReflectsFiltering) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 10, 10, 3, Timestamp::Seconds(1));
  EXPECT_DOUBLE_EQ(stats.Get(g.a).Selectivity(), 0.3);
  // Unknown actor: defaults.
  MapActor other("other", [](const Token& t) { return t; });
  EXPECT_DOUBLE_EQ(stats.Get(&other).Selectivity(), 1.0);
}

TEST(StatisticsTest, InputRateEwma) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  // 10 events per second for 5 seconds.
  for (int t = 1; t <= 5; ++t) {
    stats.OnEventsArrived(g.a, 10, Timestamp::Seconds(t));
  }
  EXPECT_NEAR(stats.Get(g.a).input_rate, 10.0, 1.0);
  EXPECT_EQ(stats.Get(g.a).events_arrived, 50u);
}

TEST(StatisticsTest, EwmaCostTracksRecentInvocations) {
  Graph g;
  ActorStatistics stats(0.5);
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 100, 1, 1, Timestamp::Seconds(1));
  EXPECT_DOUBLE_EQ(stats.Get(g.a).ewma_cost, 100.0);
  stats.OnFiring(g.a, 300, 1, 1, Timestamp::Seconds(2));
  EXPECT_DOUBLE_EQ(stats.Get(g.a).ewma_cost, 200.0);  // 0.5*300 + 0.5*100
}

TEST(StatisticsTest, GlobalMetricsChain) {
  // Chain a -> b -> c with selectivities 0.5, 1.0, 0.2 and unit costs.
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 10, 10, 5, Timestamp::Seconds(1));   // s=0.5 c=1
  stats.OnFiring(g.b, 20, 10, 10, Timestamp::Seconds(2));  // s=1.0 c=2
  stats.OnFiring(g.c, 10, 10, 2, Timestamp::Seconds(3));   // s=0.2 c=1
  stats.RecomputeGlobal();
  // c is the output operator: S(c)=1 (delivery is the useful work), C(c)=1;
  // S(b)=1*1=1, C(b)=2+1*1=3; S(a)=0.5*1=0.5, C(a)=1+0.5*3=2.5.
  EXPECT_NEAR(stats.GlobalSelectivity(g.c), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.c), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalSelectivity(g.b), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.b), 3.0, 1e-9);
  EXPECT_NEAR(stats.GlobalSelectivity(g.a), 0.5, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.a), 2.5, 1e-9);
  // Pr(A) = S/C.
  EXPECT_NEAR(stats.RatePriority(g.a), 0.5 / 2.5, 1e-9);
}

TEST(StatisticsTest, GlobalMetricsSumOverSharedPaths) {
  // a fans out to b and c ("we add up the downstream global costs and
  // global selectivities of each path").
  Workflow wf("fan");
  auto* a = wf.AddActor<MapActor>("a", Identity);
  auto* b = wf.AddActor<MapActor>("b", Identity);
  auto* c = wf.AddActor<MapActor>("c", Identity);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(a->out(), c->in()).ok());
  ActorStatistics stats;
  stats.Initialize(wf);
  stats.OnFiring(a, 10, 10, 10, Timestamp::Seconds(1));  // s=1 c=1
  stats.OnFiring(b, 20, 10, 5, Timestamp::Seconds(2));   // s=.5 c=2
  stats.OnFiring(c, 30, 10, 10, Timestamp::Seconds(3));  // s=1 c=3
  stats.RecomputeGlobal();
  // Leaves b and c are output operators (S=1 each); paths add up.
  EXPECT_NEAR(stats.GlobalSelectivity(a), 1.0 * (1.0 + 1.0), 1e-9);
  EXPECT_NEAR(stats.GlobalCost(a), 1.0 + 1.0 * (2.0 + 3.0), 1e-9);
}

TEST(StatisticsTest, GlobalMetricsCutCyclesConservatively) {
  Workflow wf("cyc");
  auto* a = wf.AddActor<MapActor>("a", Identity);
  auto* b = wf.AddActor<MapActor>("b", Identity);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(b->out(), a->in()).ok());
  ActorStatistics stats;
  stats.Initialize(wf);
  stats.OnFiring(a, 10, 10, 10, Timestamp::Seconds(1));
  stats.OnFiring(b, 10, 10, 10, Timestamp::Seconds(2));
  stats.RecomputeGlobal();  // must terminate
  EXPECT_GT(stats.GlobalCost(a), 0.0);
  EXPECT_GT(stats.RatePriority(a), 0.0);
}

TEST(StatisticsTest, SourceDefaultsAreSafe) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  // An actor that never consumed anything: selectivity 1, per-event cost
  // falls back to per-invocation cost.
  stats.OnFiring(g.a, 500, 0, 3, Timestamp::Seconds(1));
  EXPECT_DOUBLE_EQ(stats.Get(g.a).Selectivity(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Get(g.a).AvgCostPerEvent(), 500.0);
  stats.RecomputeGlobal();
  EXPECT_GT(stats.RatePriority(g.a), 0.0);
}

TEST(StatisticsTest, InitializeResets) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 100, 1, 1, Timestamp::Seconds(1));
  stats.Initialize(g.wf);
  EXPECT_EQ(stats.Get(g.a).invocations, 0u);
}

// ---- The scheduler-owned module, driven through the scheduler hooks ----

ReadyWindow OneEventWindow(PipelineRig* rig, int64_t ts_us) {
  ReadyWindow rw;
  rw.receiver =
      static_cast<TMWindowedReceiver*>(rig->stage_a->in()->receiver(0));
  rw.window.events.push_back(
      CWEvent(Token(ts_us), Timestamp(ts_us), WaveTag::Root(1)));
  return rw;
}

TEST(SchedulerStatisticsTest, OnlyCompletedFiringsAreRecorded) {
  PipelineRig rig;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  AbstractScheduler* sched = d.scheduler();
  const ActorStatistics& stats = sched->statistics();
  rig.clock.AdvanceTo(Timestamp::Seconds(1));
  // A rejected prefire (fired=false) leaves the module untouched, whatever
  // the outcome carries.
  sched->OnActorFired(rig.stage_a, FiringOutcome{300, 4, 2}, false);
  EXPECT_EQ(stats.Get(rig.stage_a).invocations, 0u);
  EXPECT_EQ(stats.Get(rig.stage_a).total_cost, 0);
  EXPECT_EQ(stats.Get(rig.stage_a).events_consumed, 0u);
  // A completed firing records its cost and counts; the output rate clock
  // starts at the host's Now().
  sched->OnActorFired(rig.stage_a, FiringOutcome{300, 4, 2}, true);
  const ActorStats& s = stats.Get(rig.stage_a);
  EXPECT_EQ(s.invocations, 1u);
  EXPECT_EQ(s.total_cost, 300);
  EXPECT_EQ(s.events_consumed, 4u);
  EXPECT_EQ(s.events_produced, 2u);
  EXPECT_DOUBLE_EQ(s.Selectivity(), 0.5);
  EXPECT_EQ(s.last_output, Timestamp::Seconds(1));
}

TEST(SchedulerStatisticsTest, ShedWindowIsNotAnArrival) {
  PipelineRig rig;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  AbstractScheduler* sched = d.scheduler();
  sched->SetLoadShedding(LoadSheddingOptions{1});
  rig.clock.AdvanceTo(Timestamp::Seconds(1));
  EXPECT_TRUE(sched->Enqueue(rig.stage_a, OneEventWindow(&rig, 10)));
  EXPECT_FALSE(sched->Enqueue(rig.stage_a, OneEventWindow(&rig, 20)));
  EXPECT_EQ(sched->shed_windows(), 1u);
  EXPECT_EQ(sched->statistics().Get(rig.stage_a).events_arrived, 1u);
  EXPECT_EQ(sched->statistics().Get(rig.stage_a).last_arrival,
            Timestamp::Seconds(1));
}

TEST(SchedulerStatisticsTest, ArrivalMetricMirrorsAdmittedWindows) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  PipelineRig rig;
  rig.PushN(30);
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  d.scheduler()->SetLoadShedding(LoadSheddingOptions{2});
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  // Thirty same-instant reports overrun the cap, so some windows are shed;
  // telemetry counts exactly the arrivals the statistics module saw.
  ASSERT_GT(d.scheduler()->shed_windows(), 0u);
  for (const Actor* actor : {static_cast<const Actor*>(rig.stage_a),
                             static_cast<const Actor*>(rig.stage_b),
                             static_cast<const Actor*>(rig.sink)}) {
    EXPECT_EQ(obs::MetricsRegistry::Global()
                  .GetCounter("cwf_actor_events_arrived_total", "actor",
                              actor->name())
                  ->Value(),
              d.scheduler()->statistics().Get(actor).events_arrived)
        << actor->name();
  }
}

TEST(SchedulerStatisticsTest, ReInitializeZeroesTheModule) {
  PipelineRig rig;
  rig.PushN(5);
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  const ActorStatistics& stats = d.scheduler()->statistics();
  ASSERT_EQ(stats.Get(rig.stage_b).invocations, 5u);
  ASSERT_EQ(stats.Get(rig.stage_b).events_arrived, 5u);

  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  for (const auto& actor : rig.wf.actors()) {
    const ActorStats& s = stats.Get(actor.get());
    EXPECT_EQ(s.invocations, 0u) << actor->name();
    EXPECT_EQ(s.total_cost, 0) << actor->name();
    EXPECT_EQ(s.events_consumed, 0u) << actor->name();
    EXPECT_EQ(s.events_produced, 0u) << actor->name();
    EXPECT_EQ(s.events_arrived, 0u) << actor->name();
    EXPECT_EQ(s.input_rate, 0.0) << actor->name();
    EXPECT_EQ(s.output_rate, 0.0) << actor->name();
  }
}

TEST(SchedulerStatisticsTest, RatePriorityFollowsTheSchedulersModule) {
  PipelineRig rig;
  auto owned = std::make_unique<RBScheduler>();
  RBScheduler* rb = owned.get();
  SCWFDirector d(std::move(owned));
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  // stage_a halves its input at 10 µs/event; stage_b passes it on at
  // 20 µs/event; the sink costs 10 µs/event.
  rb->OnActorFired(rig.stage_a, FiringOutcome{100, 10, 5}, true);
  rb->OnActorFired(rig.stage_b, FiringOutcome{200, 10, 10}, true);
  rb->OnActorFired(rig.sink, FiringOutcome{100, 10, 0}, true);
  rb->OnIterationEnd();
  // Sink: S=1, C=10. stage_b: S=1, C=20+10=30. stage_a: S=0.5,
  // C=10+0.5*30=25, so Pr = 0.5/25.
  EXPECT_NEAR(rb->PriorityOf(rig.stage_a), 0.5 / 25.0, 1e-12);
  EXPECT_NEAR(rb->PriorityOf(rig.stage_b), 1.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(rb->PriorityOf(rig.stage_a),
                   rb->statistics().RatePriority(rig.stage_a));

  // Another firing moves the module, and the next period boundary moves
  // the priority with it: stage_a has consumed 20 events in 300 µs
  // (15 µs/event) at selectivity 0.5.
  rb->OnActorFired(rig.stage_a, FiringOutcome{200, 10, 5}, true);
  rb->OnIterationEnd();
  EXPECT_NEAR(rb->PriorityOf(rig.stage_a), 0.5 / (15.0 + 0.5 * 30.0), 1e-12);
  EXPECT_DOUBLE_EQ(rb->PriorityOf(rig.stage_a),
                   rb->statistics().RatePriority(rig.stage_a));
}

}  // namespace
}  // namespace cwf

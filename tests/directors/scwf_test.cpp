#include <gtest/gtest.h>

#include "actors/library.h"
#include "directors/scwf_director.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

struct Rig {
  Workflow wf{"w"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* src;
  MapActor* map;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  Rig() {
    src = wf.AddActor<StreamSourceActor>("src", feed);
    map = wf.AddActor<MapActor>(
        "map", [](const Token& t) { return Token(t.AsInt() + 100); });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
    CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
  }
};

TEST(SCWFTest, ProcessesStreamEndToEnd) {
  Rig rig;
  for (int i = 0; i < 10; ++i) {
    rig.feed->Push(Token(i), Timestamp::Seconds(i));
  }
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0].token.AsInt(), 100);
  EXPECT_GT(d.total_firings(), 0u);
  EXPECT_GT(d.director_iterations(), 0u);
}

TEST(SCWFTest, RequiresCostModelOnVirtualClock) {
  Rig rig;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  EXPECT_EQ(d.Initialize(&rig.wf, &rig.clock, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(SCWFTest, StatisticsModuleTracksCostsAndSelectivity) {
  Rig rig;
  rig.cm.SetActorCost("map", {500, 0, 0});
  for (int i = 0; i < 20; ++i) {
    rig.feed->Push(Token(i), Timestamp::Seconds(i));
  }
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  const ActorStats& s = d.scheduler()->statistics().Get(rig.map);
  EXPECT_EQ(s.invocations, 20u);
  EXPECT_EQ(s.events_consumed, 20u);
  EXPECT_EQ(s.events_produced, 20u);
  EXPECT_DOUBLE_EQ(s.Selectivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.AvgCost(), 500.0);
  EXPECT_GT(s.input_rate, 0.0);
}

TEST(SCWFTest, ResponseTimeReflectsSchedulerQueueing) {
  Rig rig;
  rig.cm.SetActorCost("map", {2000000, 0, 0});  // 2 virtual seconds
  rig.feed->Push(Token(1), Timestamp(0));
  rig.feed->Push(Token(2), Timestamp(0));
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  const Duration r2 = got[1].completed_at - got[1].event_timestamp;
  EXPECT_GE(r2, Seconds(4));  // waited behind the first tuple
}

TEST(SCWFTest, HaltedActorDoesNotSpinScheduler) {
  class HaltAfterOne : public MapActor {
   public:
    HaltAfterOne()
        : MapActor("halt", [](const Token& t) { return t; }) {}
    Result<bool> Postfire() override { return false; }
  };
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* halt = wf.AdoptActor(std::make_unique<HaltAfterOne>());
  auto* h = static_cast<HaltAfterOne*>(halt);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), h->in()).ok());
  ASSERT_TRUE(wf.Connect(h->out(), sink->in()).ok());
  for (int i = 0; i < 5; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 1u);  // halted after the first firing
  EXPECT_TRUE(d.IsHalted(h));
}

TEST(SCWFTest, MultiInputActorWaitsForBothPorts) {
  class Join : public Actor {
   public:
    Join() : Actor("join") {
      a_ = AddInputPort("a");
      b_ = AddInputPort("b");
      out_ = AddOutputPort("out");
    }
    Status Fire() override {
      auto wa = a_->Get();
      auto wb = b_->Get();
      if (wa && wb) {
        Send(out_, Token(wa->events[0].token.AsInt() +
                         wb->events[0].token.AsInt()));
      }
      return Status::OK();
    }
    InputPort* a_;
    InputPort* b_;
    OutputPort* out_;
  };
  Workflow wf("w");
  auto feed_a = std::make_shared<PushChannel>();
  auto feed_b = std::make_shared<PushChannel>();
  auto* sa = wf.AddActor<StreamSourceActor>("sa", feed_a);
  auto* sb = wf.AddActor<StreamSourceActor>("sb", feed_b);
  auto* join = wf.AddActor<Join>();
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(sa->out(), join->a_).ok());
  ASSERT_TRUE(wf.Connect(sb->out(), join->b_).ok());
  ASSERT_TRUE(wf.Connect(join->out_, sink->in()).ok());
  feed_a->Push(Token(1), Timestamp::Seconds(1));
  feed_b->Push(Token(10), Timestamp::Seconds(5));
  feed_a->Close();
  feed_b->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.AsInt(), 11);
}

TEST(SCWFTest, HorizonLimitsProcessing) {
  Rig rig;
  rig.feed->Push(Token(1), Timestamp::Seconds(1));
  rig.feed->Push(Token(2), Timestamp::Seconds(100));
  rig.feed->Close();
  SCWFDirector d(std::make_unique<QBSScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(50)).ok());
  EXPECT_EQ(rig.sink->count(), 1u);
  // Continue to the end.
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(rig.sink->count(), 2u);
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

TEST(SCWFTest, RunsOnRealClockWithoutCostModel) {
  Rig rig;
  for (int i = 0; i < 10; ++i) {
    rig.feed->Push(Token(i), Timestamp(0));  // all immediately available
  }
  rig.feed->Close();
  RealClock real;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &real, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(rig.sink->count(), 10u);
  // Measured (not modeled) costs were recorded.
  EXPECT_EQ(d.scheduler()->statistics().Get(rig.map).invocations, 10u);
}

TEST(SCWFTest, RealClockHonorsFutureArrivalsWithinHorizon) {
  Rig rig;
  RealClock real;
  rig.feed->Push(Token(1), real.Now() + Millis(30));
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &real, nullptr).ok());
  ASSERT_TRUE(d.Run(real.Now() + Millis(500)).ok());
  EXPECT_EQ(rig.sink->count(), 1u);
}

}  // namespace
}  // namespace cwf

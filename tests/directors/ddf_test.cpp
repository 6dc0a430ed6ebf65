#include <gtest/gtest.h>

#include "actors/library.h"
#include "core/composite_actor.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "obs/metrics.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

TEST(DDFTest, RunsPipelineToQuiescence) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* dbl = wf.AddActor<MapActor>(
      "dbl", [](const Token& t) { return Token(t.AsInt() * 2); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), dbl->in()).ok());
  ASSERT_TRUE(wf.Connect(dbl->out(), sink->in()).ok());
  for (int i = 1; i <= 5; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[4].token.AsInt(), 10);
  EXPECT_GE(d.total_firings(), 10u);
}

TEST(DDFTest, AdvancesVirtualClockToSourceArrivals) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(100));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_EQ(clock.Now(), Timestamp::Seconds(100));
}

TEST(DDFTest, HorizonStopsBeforeFutureArrivals) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(10));
  feed->Push(Token(2), Timestamp::Seconds(200));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(50)).ok());
  EXPECT_EQ(sink->count(), 1u);
}

TEST(DDFTest, DataDependentRoutingDecisionPoint) {
  // The DDF use case: a filter with data-dependent production rate.
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* odd = wf.AddActor<FilterActor>(
      "odd", [](const Token& t) { return t.AsInt() % 2 == 1; });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), odd->in()).ok());
  ASSERT_TRUE(wf.Connect(odd->out(), sink->in()).ok());
  for (int i = 1; i <= 6; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(1));
  }
  feed->Close();
  VirtualClock clock;
  clock.AdvanceTo(Timestamp::Seconds(1));
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 3u);
}

TEST(DDFTest, PostfireFalseHaltsActor) {
  class OneShot : public Actor {
   public:
    OneShot() : Actor("oneshot") { out_ = AddOutputPort("out"); }
    Result<bool> Prefire() override { return true; }
    Status Fire() override {
      Send(out_, Token(1));
      return Status::OK();
    }
    Result<bool> Postfire() override { return false; }  // halt after one shot
    OutputPort* out_;
  };
  Workflow wf("w");
  auto* one = wf.AddActor<OneShot>();
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(one->out_, sink->in()).ok());
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_TRUE(d.IsHalted(one));
}

TEST(DDFTest, LivelockGuardTrips) {
  class Spinner : public Actor {
   public:
    Spinner() : Actor("spin") { AddOutputPort("out"); }
    Result<bool> Prefire() override { return true; }
    Status Fire() override { return Status::OK(); }
  };
  Workflow wf("w");
  wf.AddActor<Spinner>();
  VirtualClock clock;
  DDFOptions opts;
  opts.max_firings_per_run = 100;
  DDFDirector d(opts);
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  EXPECT_EQ(d.Run(Timestamp::Max()).code(), StatusCode::kResourceExhausted);
}

TEST(DDFTest, WaveStampsPropagateAsChildren) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* fan = wf.AddActor<FlatMapActor>("fan", [](const Token& t) {
    return std::vector<Token>{t, t, t};
  });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), fan->in()).ok());
  ASSERT_TRUE(wf.Connect(fan->out(), sink->in()).ok());
  feed->Push(Token(7), Timestamp::Seconds(1));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 3u);
  // All three share the same root; serials 1..3; only #3 is last-in-wave.
  EXPECT_EQ(got[0].wave.root(), got[2].wave.root());
  EXPECT_EQ(got[0].wave.path(), std::vector<uint32_t>{1});
  EXPECT_EQ(got[2].wave.path(), std::vector<uint32_t>{3});
}

TEST(DDFTest, InnerActorCostIsModeledOnVirtualClock) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  // src -> composite[DDF: ddf_cost_inner] -> sink under SCWF. The inner
  // firing's engine-time cost is the cost model's figure, not host time.
  Workflow wf("outer");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* comp =
      wf.AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
  auto* inner = comp->inner()->AddActor<MapActor>(
      "ddf_cost_inner", [](const Token& t) { return Token(t.AsInt() + 1); });
  comp->ExposeInput("in", inner->in());
  comp->ExposeOutput("out", inner->out());
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), comp->GetInputPort("in")).ok());
  ASSERT_TRUE(wf.Connect(comp->GetOutputPort("out"), sink->in()).ok());
  for (int i = 1; i <= 4; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();

  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  CostModel cost_model;
  cost_model.SetActorCost("ddf_cost_inner", CostParams{250, 7, 3});
  VirtualClock clock;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cost_model).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  ASSERT_EQ(sink->count(), 4u);

  const obs::Histogram* cost = obs::MetricsRegistry::Global().GetHistogram(
      "cwf_actor_cost_us", "actor", "ddf_cost_inner");
  EXPECT_EQ(cost->Count(), 4u);
  EXPECT_DOUBLE_EQ(cost->Mean(),
                   static_cast<double>(
                       cost_model.FiringCost("ddf_cost_inner", 1, 1)));
}

TEST(DDFTest, RunBeforeInitializeFails) {
  DDFDirector d;
  EXPECT_EQ(d.Run(Timestamp::Max()).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cwf

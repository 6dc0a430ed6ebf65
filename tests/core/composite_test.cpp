#include <gtest/gtest.h>

#include "actors/library.h"
#include "core/composite_actor.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"
#include "test_util.h"

namespace cwf {
namespace {

// Build: source -> composite[ double -> add_ten ] -> sink, run under SCWF.
struct Rig {
  Workflow wf{"outer"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* source = nullptr;
  CompositeActor* comp = nullptr;
  CollectorSink* sink = nullptr;
  VirtualClock clock;
  CostModel cost_model;

  Rig() {
    source = wf.AddActor<StreamSourceActor>("src", feed);
    comp = wf.AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
    auto* dbl = comp->inner()->AddActor<MapActor>(
        "double", [](const Token& t) { return Token(t.AsInt() * 2); });
    auto* add = comp->inner()->AddActor<MapActor>(
        "add_ten", [](const Token& t) { return Token(t.AsInt() + 10); });
    CWF_CHECK(comp->inner()->Connect(dbl->out(), add->in()).ok());
    comp->ExposeInput("in", dbl->in());
    comp->ExposeOutput("out", add->out());
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(source->out(), comp->GetInputPort("in")).ok());
    CWF_CHECK(wf.Connect(comp->GetOutputPort("out"), sink->in()).ok());
  }
};

TEST(CompositeTest, InnerPipelineTransformsTokens) {
  Rig rig;
  rig.feed->Push(Token(1), Timestamp::Seconds(1));
  rig.feed->Push(Token(2), Timestamp::Seconds(2));
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cost_model).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].token.AsInt(), 12);  // 1*2+10
  EXPECT_EQ(got[1].token.AsInt(), 14);
}

TEST(CompositeTest, OutputsStampedAsCompositeFiring) {
  Rig rig;
  rig.feed->Push(Token(5), Timestamp::Seconds(1));
  rig.feed->Close();
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cost_model).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  // Response-time timestamp survives the boundary: the outer event's arrival.
  EXPECT_EQ(got[0].event_timestamp, Timestamp::Seconds(1));
  // Wave: a child of the external event's root wave.
  EXPECT_EQ(got[0].wave.depth(), 1u);
}

TEST(CompositeTest, PrefireTrueOnAnyReadyInput) {
  CompositeActor comp("c", std::make_unique<DDFDirector>());
  auto* a = comp.inner()->AddActor<MapActor>(
      "a", [](const Token& t) { return t; });
  auto* b = comp.inner()->AddActor<MapActor>(
      "b", [](const Token& t) { return t; });
  InputPort* in1 = comp.ExposeInput("in1", a->in());
  comp.ExposeInput("in2", b->in());
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(comp.Initialize(&ctx).ok());
  in1->SetReceiver(in1->ChannelCount(),
                   std::make_unique<QueueReceiver>(in1));
  // No input anywhere: not ready.
  EXPECT_FALSE(comp.Prefire().value());
  ASSERT_TRUE(in1->receiver(in1->ChannelCount() - 1)
                  ->Put(testutil::Ev(Token(1), 1))
                  .ok());
  // One of two ports ready is enough for a composite.
  EXPECT_TRUE(comp.Prefire().value());
}

TEST(CompositeTest, ExposeForeignPortFailsAtInitialize) {
  Workflow other("other");
  auto* foreign = other.AddActor<MapActor>(
      "m", [](const Token& t) { return t; });
  CompositeActor comp("c", std::make_unique<DDFDirector>());
  comp.ExposeInput("in", foreign->in());
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  EXPECT_FALSE(comp.Initialize(&ctx).ok());
}

TEST(CompositeTest, InnerWindowSemanticsApply) {
  // Inner actor aggregates windows of 3; outer relays single events.
  Workflow wf("outer");
  auto feed = std::make_shared<PushChannel>();
  auto* source = wf.AddActor<StreamSourceActor>("src", feed);
  auto* comp =
      wf.AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
  auto* sum = comp->inner()->AddActor<WindowFnActor>(
      "sum", WindowSpec::Tuples(3, 3),
      [](const Window& w, std::vector<Token>* out) {
        int64_t total = 0;
        for (const auto& e : w.events) {
          total += e.token.AsInt();
        }
        out->push_back(Token(total));
        return Status::OK();
      });
  comp->ExposeInput("in", sum->in());
  comp->ExposeOutput("out", sum->out());
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(source->out(), comp->GetInputPort("in")).ok());
  ASSERT_TRUE(wf.Connect(comp->GetOutputPort("out"), sink->in()).ok());
  for (int i = 1; i <= 7; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].token.AsInt(), 6);   // 1+2+3
  EXPECT_EQ(got[1].token.AsInt(), 15);  // 4+5+6
}

TEST(CompositeTest, NextDeadlineSurfacesInnerTimeWindows) {
  Workflow wf("outer");
  auto feed = std::make_shared<PushChannel>();
  auto* source = wf.AddActor<StreamSourceActor>("src", feed);
  auto* comp =
      wf.AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
  auto* minute = comp->inner()->AddActor<WindowFnActor>(
      "per_minute", WindowSpec::Time(Seconds(60), Seconds(60)),
      [](const Window& w, std::vector<Token>* out) {
        out->push_back(Token(static_cast<int64_t>(w.size())));
        return Status::OK();
      });
  comp->ExposeInput("in", minute->in());
  comp->ExposeOutput("out", minute->out());
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(source->out(), comp->GetInputPort("in")).ok());
  ASSERT_TRUE(wf.Connect(comp->GetOutputPort("out"), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(10));
  feed->Push(Token(2), Timestamp::Seconds(20));
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  // Run past the inner window's deadline: the composite must be woken to
  // close it even though no further events arrive.
  ASSERT_TRUE(d.Run(Timestamp::Seconds(120)).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.AsInt(), 2);  // both events in the minute window
}

TEST(CompositeTest, ScwfInnerDirectorClosesBoundaryTimeWindowByDeadline) {
  // The exposed inner port's receiver is created after the inner SCWF
  // director's Initialize returned; its formation deadline must still be
  // swept, or the window never closes (no later event arrives).
  Workflow wf("outer");
  auto feed = std::make_shared<PushChannel>();
  auto* source = wf.AddActor<StreamSourceActor>("src", feed);
  auto* comp = wf.AddActor<CompositeActor>(
      "comp", std::make_unique<SCWFDirector>(std::make_unique<FIFOScheduler>()));
  auto* minute = comp->inner()->AddActor<WindowFnActor>(
      "per_minute",
      WindowSpec::Time(Seconds(60), Seconds(60)).FormationTimeout(Seconds(5)),
      [](const Window& w, std::vector<Token>* out) {
        out->push_back(Token(static_cast<int64_t>(w.size())));
        return Status::OK();
      });
  comp->ExposeInput("in", minute->in());
  comp->ExposeOutput("out", minute->out());
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(source->out(), comp->GetInputPort("in")).ok());
  ASSERT_TRUE(wf.Connect(comp->GetOutputPort("out"), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(10));
  feed->Push(Token(2), Timestamp::Seconds(20));
  feed->Push(Token(3), Timestamp::Seconds(30));
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(120)).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.AsInt(), 3);  // all three events in the minute
  // Closed by its deadline (60 s + 5 s timeout), not by end of input.
  EXPECT_GE(got[0].completed_at, Timestamp::Seconds(65));
  EXPECT_LT(got[0].completed_at, Timestamp::Seconds(66));
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

TEST(WorkflowDotTest, CompositeRendersAsCluster) {
  Rig rig;
  const std::string dot = rig.wf.ToDot();
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("label=\"comp\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"double\""), std::string::npos);  // inner actor
}

}  // namespace
}  // namespace cwf

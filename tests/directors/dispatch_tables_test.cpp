// The per-actor dispatch tables directors resolve at Initialize: slots
// assigned by Workflow::AdoptActor, the membership check every table
// lookup makes, and the rebuild on Initialize re-entry.

#include <gtest/gtest.h>

#include "actors/library.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

class HaltAfterOne : public MapActor {
 public:
  HaltAfterOne() : MapActor("halt", [](const Token& t) { return t; }) {}
  Result<bool> Postfire() override { return false; }
};

/// src -> halt -> sink; `halt` stops itself after its first firing.
struct Rig {
  Workflow wf{"w"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* src;
  Actor* halt;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  Rig() {
    src = wf.AddActor<StreamSourceActor>("src", feed);
    halt = wf.AdoptActor(std::make_unique<HaltAfterOne>());
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), halt->GetInputPort("in")).ok());
    CWF_CHECK(wf.Connect(halt->GetOutputPort("out"), sink->in()).ok());
  }
};

TEST(DispatchTablesTest, AdoptActorAssignsSlotsInOrder) {
  MapActor loose("loose", [](const Token& t) { return t; });
  EXPECT_EQ(loose.slot(), Actor::kNoSlot);
  Rig rig;
  ASSERT_EQ(rig.wf.actors().size(), 3u);
  for (size_t i = 0; i < rig.wf.actors().size(); ++i) {
    EXPECT_EQ(rig.wf.actors()[i]->slot(), i);
  }
  EXPECT_EQ(rig.src->slot(), 0u);
  EXPECT_EQ(rig.halt->slot(), 1u);
  EXPECT_EQ(rig.sink->slot(), 2u);
}

TEST(DispatchTablesDeathTest, ActorFromAnotherWorkflowFailsTheSlotCheck) {
  Rig rig;
  Rig other;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  // Same slot, different workflow: the slot is in range but the actor at it
  // is not this one.
  ASSERT_EQ(other.halt->slot(), rig.halt->slot());
  EXPECT_DEATH(d.IsHalted(other.halt), "is not part of workflow");
  MapActor loose("loose", [](const Token& t) { return t; });
  EXPECT_DEATH(d.IsHalted(&loose), "is not part of workflow");
}

TEST(DispatchTablesTest, ReinitializeRebuildsEveryTable) {
  Rig rig;
  rig.cm.SetActorCost("halt", {700, 0, 0});
  for (int i = 0; i < 3; ++i) {
    rig.feed->Push(Token(i), Timestamp(0));
  }
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  const ActorStatistics& stats = d.scheduler()->statistics();
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(1)).ok());
  ASSERT_TRUE(d.IsHalted(rig.halt));
  EXPECT_EQ(stats.Get(rig.halt).invocations, 1u);
  EXPECT_DOUBLE_EQ(stats.Get(rig.halt).AvgCost(), 700.0);

  // Costs are resolved per Initialize: this one applies from the next.
  rig.cm.SetActorCost("halt", {300, 0, 0});
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  EXPECT_FALSE(d.IsHalted(rig.halt));
  EXPECT_EQ(stats.Get(rig.halt).invocations, 0u);
  EXPECT_EQ(stats.Get(rig.src).invocations, 0u);
  EXPECT_EQ(d.total_firings(), 0u);

  rig.feed->Push(Token(9), rig.clock.Now());
  rig.feed->Close();
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_TRUE(d.IsHalted(rig.halt));
  EXPECT_EQ(stats.Get(rig.halt).invocations, 1u);
  EXPECT_DOUBLE_EQ(stats.Get(rig.halt).AvgCost(), 300.0);
}

TEST(DispatchTablesTest, ReinitializeClearsHaltedFlagsUnderDdf) {
  Rig rig;
  rig.feed->Push(Token(1), Timestamp(0));
  rig.feed->Push(Token(2), Timestamp(0));
  rig.feed->Close();
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  ASSERT_TRUE(d.IsHalted(rig.halt));
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  EXPECT_FALSE(d.IsHalted(rig.halt));
  EXPECT_FALSE(d.IsHalted(rig.src));
}

}  // namespace
}  // namespace cwf

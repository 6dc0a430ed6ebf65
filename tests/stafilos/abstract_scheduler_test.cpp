// Direct tests of the Abstract Scheduler machinery shared by every policy:
// the per-actor event queues sorted by timestamp, registration, priorities
// and introspection.

#include <gtest/gtest.h>

#include "sched_test_util.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"

namespace cwf {
namespace {

using schedtest::PipelineRig;

ReadyWindow MakeRW(PipelineRig* rig, int64_t ts_us, uint64_t seq) {
  ReadyWindow rw;
  rw.receiver =
      static_cast<TMWindowedReceiver*>(rig->stage_a->in()->receiver(0));
  CWEvent e(Token(static_cast<int64_t>(seq)), Timestamp(ts_us),
            WaveTag::Root(seq));
  e.seq = seq;
  rw.window.events.push_back(e);
  return rw;
}

struct Bound {
  PipelineRig rig;
  SCWFDirector director;
  AbstractScheduler* sched;

  Bound() : director(std::make_unique<FIFOScheduler>()) {
    CWF_CHECK(director.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
    sched = director.scheduler();
  }
};

TEST(AbstractSchedulerTest, PerActorQueueIsSortedByTimestamp) {
  Bound b;
  // Enqueue out of order: the paper's abstract scheduler keeps per-actor
  // queues of events *sorted by timestamp*.
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 3000, 1));
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 1000, 2));
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 2000, 3));
  EXPECT_EQ(b.sched->QueuedWindows(b.rig.stage_a), 3u);
  EXPECT_EQ(b.sched->TotalQueuedEvents(), 3u);
  auto w1 = b.sched->PopWindow(b.rig.stage_a);
  auto w2 = b.sched->PopWindow(b.rig.stage_a);
  auto w3 = b.sched->PopWindow(b.rig.stage_a);
  ASSERT_TRUE(w1 && w2 && w3);
  EXPECT_EQ(w1->window.events[0].timestamp, Timestamp(1000));
  EXPECT_EQ(w2->window.events[0].timestamp, Timestamp(2000));
  EXPECT_EQ(w3->window.events[0].timestamp, Timestamp(3000));
  EXPECT_FALSE(b.sched->PopWindow(b.rig.stage_a).has_value());
  EXPECT_EQ(b.sched->TotalQueuedEvents(), 0u);
}

TEST(AbstractSchedulerTest, TimestampTieBrokenBySequence) {
  Bound b;
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 1000, 9));
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 1000, 4));
  auto first = b.sched->PopWindow(b.rig.stage_a);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->window.events[0].seq, 4u);
}

TEST(AbstractSchedulerTest, UnknownActorIntrospectionIsSafe) {
  Bound b;
  MapActor stranger("stranger", [](const Token& t) { return t; });
  EXPECT_EQ(b.sched->GetState(&stranger), ActorState::kInactive);
  EXPECT_EQ(b.sched->QueuedWindows(&stranger), 0u);
  EXPECT_EQ(b.sched->BufferedWindows(&stranger), 0u);
  EXPECT_FALSE(b.sched->PopWindow(&stranger).has_value());
}

TEST(AbstractSchedulerDeathTest, EnqueueForUnknownActorAborts) {
  Bound b;
  MapActor stranger("stranger", [](const Token& t) { return t; });
  EXPECT_DEATH(b.sched->Enqueue(&stranger, MakeRW(&b.rig, 0, 1)),
               "unregistered actor");
}

TEST(AbstractSchedulerTest, DesignerPrioritiesPickedUpAtInitialize) {
  PipelineRig rig;
  auto sched = std::make_unique<QBSScheduler>();
  sched->SetActorPriority("stage_a", 5);
  QBSScheduler* sp = sched.get();
  SCWFDirector d(std::move(sched));
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  // Reflected in the quantum: priority 5 gets (40-5)*4b.
  EXPECT_DOUBLE_EQ(sp->QuantumFor(5), 35 * 4 * 500.0);
}

TEST(AbstractSchedulerTest, EnqueueFeedsArrivalStatistics) {
  Bound b;
  b.rig.clock.AdvanceTo(Timestamp::Seconds(1));
  b.sched->Enqueue(b.rig.stage_a, MakeRW(&b.rig, 500, 1));
  EXPECT_EQ(b.sched->statistics().Get(b.rig.stage_a).events_arrived, 1u);
}

TEST(AbstractSchedulerTest, GetNextActorNullWhenNothingActive) {
  Bound b;
  b.rig.feed->Close();  // source exhausted, no events anywhere
  EXPECT_EQ(b.sched->GetNextActor(), nullptr);
  EXPECT_FALSE(b.sched->HasImmediateWork());
}

}  // namespace
}  // namespace cwf

// OS-thread mode of the PNCWF director: one std::thread per actor with
// blocking windowed receivers on a real clock.

#include <gtest/gtest.h>

#include <chrono>

#include "actors/library.h"
#include "actors/stream_ops.h"
#include "analysis/capacity_planner.h"
#include "directors/pncwf_director.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

PNCWFOptions ThreadMode() {
  PNCWFOptions o;
  o.mode = PNCWFMode::kOsThreads;
  return o;
}

TEST(PNCWFThreadsTest, DrainsFiniteStream) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* map = wf.AddActor<MapActor>(
      "map", [](const Token& t) { return Token(t.AsInt() * 3); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), map->in()).ok());
  ASSERT_TRUE(wf.Connect(map->out(), sink->in()).ok());
  for (int i = 0; i < 20; ++i) {
    feed->Push(Token(i), Timestamp(0));  // all available immediately
  }
  feed->Close();
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 20u);
  // Per-channel FIFO order is preserved.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i].token.AsInt(), i * 3);
  }
}

TEST(PNCWFThreadsTest, FanOutDeliversToAllBranches) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* s1 = wf.AddActor<CollectorSink>("s1");
  auto* s2 = wf.AddActor<CollectorSink>("s2");
  ASSERT_TRUE(wf.Connect(src->out(), s1->in()).ok());
  ASSERT_TRUE(wf.Connect(src->out(), s2->in()).ok());
  for (int i = 0; i < 10; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(s1->count(), 10u);
  EXPECT_EQ(s2->count(), 10u);
}

TEST(PNCWFThreadsTest, WindowedActorAggregatesConcurrently) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sum = wf.AddActor<WindowFnActor>(
      "sum", WindowSpec::Tuples(5, 5).DeleteUsedEvents(true),
      [](const Window& w, std::vector<Token>* out) {
        int64_t total = 0;
        for (const auto& e : w.events) {
          total += e.token.AsInt();
        }
        out->push_back(Token(total));
        return Status::OK();
      });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), sum->in()).ok());
  ASSERT_TRUE(wf.Connect(sum->out(), sink->in()).ok());
  for (int i = 1; i <= 25; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 5u);
  int64_t grand = 0;
  for (const auto& r : got) {
    grand += r.token.AsInt();
  }
  EXPECT_EQ(grand, 25 * 26 / 2);
}

TEST(PNCWFThreadsTest, TimedWindowClosedByBlockedThreadTimeout) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* win = wf.AddActor<WindowFnActor>(
      "win", WindowSpec::Time(Millis(50), Millis(50)),
      [](const Window& w, std::vector<Token>* out) {
        out->push_back(Token(static_cast<int64_t>(w.size())));
        return Status::OK();
      });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), win->in()).ok());
  ASSERT_TRUE(wf.Connect(win->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp(0));
  feed->Push(Token(2), Timestamp(0));
  feed->Close();
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  // The window can only close via the blocked reader's timeout handling.
  ASSERT_TRUE(d.Run(clock.Now() + Millis(400)).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.AsInt(), 2);
}

TEST(PNCWFThreadsTest, RequiresRealClock) {
  Workflow wf("w");
  VirtualClock clock;
  PNCWFDirector d(ThreadMode());
  EXPECT_EQ(d.Initialize(&wf, &clock, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(PNCWFThreadsTest, ReinitializeAfterRun) {
  // The director must be reusable: run, then initialize a new workflow.
  auto run_once = [](PNCWFDirector* d) {
    Workflow wf("w");
    auto feed = std::make_shared<PushChannel>();
    auto* src = wf.AddActor<StreamSourceActor>("src", feed);
    auto* sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), sink->in()).ok());
    feed->Push(Token(1), Timestamp(0));
    feed->Close();
    RealClock clock;
    CWF_CHECK(d->Initialize(&wf, &clock, nullptr).ok());
    CWF_CHECK(d->Run(Timestamp::Max()).ok());
    return sink->count();
  };
  PNCWFDirector d(ThreadMode());
  EXPECT_EQ(run_once(&d), 1u);
  EXPECT_EQ(run_once(&d), 1u);
}

TEST(PNCWFThreadsTest, DelayedEventsSurviveDrain) {
  // The DelayActor holds both events behind its own deadline
  // (Actor::NextDeadline), not a receiver's: the drain check must count
  // them as pending work and the starved wait must wake to release them.
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* delay = wf.AddActor<DelayActor>("delay", Millis(50));
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), delay->in()).ok());
  ASSERT_TRUE(wf.Connect(delay->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp(0));
  feed->Push(Token(2), Timestamp(0));
  feed->Close();
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 2u);
  EXPECT_EQ(delay->in_flight(), 0u);
}

TEST(PNCWFThreadsTest, IdleDeploymentDoesNotPoll) {
  // An open, empty feed: every thread parks. Actor threads with no pending
  // deadline wait untimed; only the Run() loop and the source wake on the
  // watchdog period.
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* map = wf.AddActor<MapActor>(
      "map", [](const Token& t) { return Token(t.AsInt() + 1); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), map->in()).ok());
  ASSERT_TRUE(wf.Connect(map->out(), sink->in()).ok());
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(clock.Now() + Millis(300)).ok());
  EXPECT_EQ(sink->count(), 0u);
  EXPECT_EQ(d.timed_wakeups(map), 0u);
  EXPECT_EQ(d.timed_wakeups(sink), 0u);
  const uint64_t ticks = 300 / PNCWFDirector::kWatchdogPeriod.count() + 2;
  EXPECT_LE(d.timed_wakeups(), ticks);
  EXPECT_LE(d.timed_wakeups(src), ticks);
}

/// Fires only when both inputs hold a window (the default prefire).
class PairActor : public Actor {
 public:
  explicit PairActor(std::string name) : Actor(std::move(name)) {
    left_ = AddInputPort("left");
    right_ = AddInputPort("right");
    out_ = AddOutputPort("out");
  }
  InputPort* left() const { return left_; }
  InputPort* right() const { return right_; }
  OutputPort* out() const { return out_; }

  Status Fire() override {
    std::optional<Window> l = left_->Get();
    std::optional<Window> r = right_->Get();
    if (l.has_value() && r.has_value()) {
      Send(out_, Token(l->events.front().token.AsInt() +
                       r->events.front().token.AsInt()));
    }
    return Status::OK();
  }

 private:
  InputPort* left_;
  InputPort* right_;
  OutputPort* out_;
};

TEST(PNCWFThreadsTest, ParkedThreadsExitAtHorizon) {
  // `busy` blocks in Put against pair.left (capacity 2): pair waits for its
  // right input, which `idle` never delivers — `idle` parks on its empty,
  // open feed. Nothing deadlocks (idle is live), so only the horizon ends
  // the run, and stop must reach both the untimed Put wait and the source.
  Workflow wf("w");
  auto busy_feed = std::make_shared<PushChannel>();
  auto idle_feed = std::make_shared<PushChannel>();
  auto* busy = wf.AddActor<StreamSourceActor>("busy", busy_feed);
  auto* idle = wf.AddActor<StreamSourceActor>("idle", idle_feed);
  auto* pair = wf.AddActor<PairActor>("pair");
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(busy->out(), pair->left()).ok());
  ASSERT_TRUE(wf.Connect(idle->out(), pair->right()).ok());
  ASSERT_TRUE(wf.Connect(pair->out(), sink->in()).ok());
  for (int i = 0; i < 10; ++i) {
    busy_feed->Push(Token(i), Timestamp(0));
  }
  analysis::CapacityPlan plan;
  analysis::ChannelCapacity ch;
  ch.producer = "busy.out";
  ch.consumer = "pair.left";
  ch.to_channel = 0;
  ch.capacity = 2;
  ch.bounded = true;
  plan.channels.push_back(ch);
  RealClock clock;
  PNCWFDirector d(ThreadMode());
  d.set_capacity_plan(plan);
  d.set_static_analysis_enabled(false);
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(d.Run(clock.Now() + Millis(100)).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Run() returned, so every thread joined. The horizon plus one watchdog
  // period (the source's longest park), with slack for a loaded host.
  EXPECT_GE(elapsed, std::chrono::milliseconds(95));
  EXPECT_LT(elapsed, std::chrono::milliseconds(100) +
                         PNCWFDirector::kWatchdogPeriod +
                         std::chrono::milliseconds(50));
  EXPECT_EQ(sink->count(), 0u);
  EXPECT_EQ(d.wait_graph()->BlockedCount(), 0u);
}

}  // namespace
}  // namespace cwf

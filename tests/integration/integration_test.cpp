// Cross-module integration: the full engine driven end-to-end in ways the
// unit tests do not cover — trace round trips feeding workflows, identical
// results across directors, the two-level LRB under the multi-workflow
// runtime, and wave synchronization through a real workflow.

#include <gtest/gtest.h>

#include <cstdio>

#include "actors/library.h"
#include "directors/ddf_director.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "lrb/harness.h"
#include "multi/connection_controller.h"
#include "stafilos/qbs_scheduler.h"
#include "stafilos/rr_scheduler.h"
#include "window/windowed_receiver.h"

namespace cwf {
namespace {

std::vector<int64_t> SortedInts(const CollectorSink& sink) {
  std::vector<int64_t> out;
  for (const auto& r : sink.TakeSnapshot()) {
    out.push_back(r.token.AsInt());
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Pipeline {
  Workflow wf{"p"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  CollectorSink* sink;

  Pipeline() {
    auto* src = wf.AddActor<StreamSourceActor>("src", feed);
    auto* odd = wf.AddActor<FilterActor>(
        "odd", [](const Token& t) { return t.AsInt() % 2 == 1; });
    auto* sq = wf.AddActor<MapActor>(
        "sq", [](const Token& t) { return Token(t.AsInt() * t.AsInt()); });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), odd->in()).ok());
    CWF_CHECK(wf.Connect(odd->out(), sq->in()).ok());
    CWF_CHECK(wf.Connect(sq->out(), sink->in()).ok());
    for (int i = 0; i < 100; ++i) {
      feed->Push(Token(i), Timestamp::Seconds(i * 0.1));
    }
    feed->Close();
  }
};

TEST(IntegrationTest, SameResultsAcrossAllDirectors) {
  std::vector<std::vector<int64_t>> results;
  {
    Pipeline p;
    VirtualClock clock;
    DDFDirector d;
    ASSERT_TRUE(d.Initialize(&p.wf, &clock, nullptr).ok());
    ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
    results.push_back(SortedInts(*p.sink));
  }
  {
    Pipeline p;
    VirtualClock clock;
    CostModel cm;
    PNCWFDirector d;
    ASSERT_TRUE(d.Initialize(&p.wf, &clock, &cm).ok());
    ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
    results.push_back(SortedInts(*p.sink));
  }
  {
    Pipeline p;
    RealClock clock;
    PNCWFOptions opt;
    opt.mode = PNCWFMode::kOsThreads;
    PNCWFDirector d(opt);
    ASSERT_TRUE(d.Initialize(&p.wf, &clock, nullptr).ok());
    ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
    results.push_back(SortedInts(*p.sink));
  }
  {
    Pipeline p;
    VirtualClock clock;
    CostModel cm;
    SCWFDirector d(std::make_unique<QBSScheduler>());
    ASSERT_TRUE(d.Initialize(&p.wf, &clock, &cm).ok());
    ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
    results.push_back(SortedInts(*p.sink));
  }
  ASSERT_EQ(results[0].size(), 50u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "director variant " << i;
  }
}

TEST(IntegrationTest, TraceRoundTripFeedsIdenticalRun) {
  lrb::GeneratorOptions gopt;
  gopt.duration = Seconds(60);
  lrb::Generator gen(gopt);
  Trace original = gen.Generate();
  const std::string path = ::testing::TempDir() + "/lrb_trace.tsv";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());

  auto run = [](const Trace& trace) {
    auto feed = std::make_shared<PushChannel>();
    feed->PushTrace(trace);
    feed->Close();
    auto app = lrb::BuildLRBApplication(feed).value();
    VirtualClock clock;
    CostModel cm;
    SCWFDirector d(std::make_unique<QBSScheduler>());
    CWF_CHECK(d.Initialize(app.workflow.get(), &clock, &cm).ok());
    CWF_CHECK(d.Run(Timestamp::Seconds(90)).ok());
    return app.toll_calculator->tolls_calculated();
  };
  EXPECT_EQ(run(original), run(*loaded));
  std::remove(path.c_str());
}

TEST(IntegrationTest, WaveSynchronizationAcrossFanOut) {
  // src fans each tuple into 3 children; a wave-window actor reassembles
  // exactly the children of each external event.
  Workflow wf("waves");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* fan = wf.AddActor<FlatMapActor>("fan", [](const Token& t) {
    return std::vector<Token>{Token(t.AsInt()), Token(t.AsInt() * 10),
                              Token(t.AsInt() * 100)};
  });
  auto* sync = wf.AddActor<WindowFnActor>(
      "sync", WindowSpec::Waves(1, 1),
      [](const Window& w, std::vector<Token>* out) {
        int64_t sum = 0;
        for (const auto& e : w.events) {
          sum += e.token.AsInt();
        }
        out->push_back(Token(sum));
        return Status::OK();
      });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), fan->in()).ok());
  ASSERT_TRUE(wf.Connect(fan->out(), sync->in()).ok());
  ASSERT_TRUE(wf.Connect(sync->out(), sink->in()).ok());
  for (int i = 1; i <= 5; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<RRScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].token.AsInt(), (i + 1) * 111);  // i + 10i + 100i
  }
}

TEST(IntegrationTest, TwoLRBInstancesUnderGlobalScheduler) {
  lrb::GeneratorOptions gopt;
  gopt.duration = Seconds(60);
  auto build = [&](const std::string& name, uint64_t seed) {
    lrb::GeneratorOptions o = gopt;
    o.seed = seed;
    lrb::Generator gen(o);
    auto feed = std::make_shared<PushChannel>();
    feed->PushTrace(gen.Generate());
    feed->Close();
    auto app = lrb::BuildLRBApplication(feed).value();
    auto manager = std::make_unique<Manager>(
        name, std::move(app.workflow),
        std::make_unique<SCWFDirector>(std::make_unique<QBSScheduler>()));
    struct Out {
      std::unique_ptr<Manager> manager;
      std::shared_ptr<db::Database> db;
      std::unique_ptr<lrb::ResponseTimeSeries> toll;
      std::unique_ptr<lrb::ResponseTimeSeries> acc;
      lrb::TollCalculator* tc;
    };
    return Out{std::move(manager), app.database, std::move(app.toll_series),
               std::move(app.accident_series), app.toll_calculator};
  };
  auto a = build("lrb_a", 1);
  auto b = build("lrb_b", 2);
  VirtualClock clock;
  CostModel cm;
  ASSERT_TRUE(a.manager->Initialize(&clock, &cm).ok());
  ASSERT_TRUE(b.manager->Initialize(&clock, &cm).ok());
  ConnectionController cc;
  Manager* ma = a.manager.get();
  Manager* mb = b.manager.get();
  ASSERT_TRUE(cc.Register(std::move(a.manager)).ok());
  ASSERT_TRUE(cc.Register(std::move(b.manager)).ok());
  GlobalScheduler gs;
  for (Manager* m : cc.Managers()) {
    gs.AddManager(m);
  }
  ASSERT_TRUE(gs.Run(&clock, Timestamp::Seconds(120)).ok());
  EXPECT_GT(a.tc->tolls_calculated(), 0u);
  EXPECT_GT(b.tc->tolls_calculated(), 0u);
  EXPECT_GT(ma->cpu_time_used(), 0);
  EXPECT_GT(mb->cpu_time_used(), 0);
  // Control plane still works afterwards.
  EXPECT_TRUE(cc.Execute("stop lrb_a").ok());
  EXPECT_NE(cc.Execute("list")->find("lrb_a STOPPED"), std::string::npos);
}

TEST(IntegrationTest, ExpiredItemsQueueIsObservable) {
  // The paper's expired items: a sliding window's evicted events are
  // counted by the channel's window operator (and released, not kept).
  Workflow wf("exp");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* win = wf.AddActor<WindowFnActor>(
      "win", WindowSpec::Tuples(2, 1),
      [](const Window&, std::vector<Token>*) { return Status::OK(); });
  ASSERT_TRUE(wf.Connect(src->out(), win->in()).ok());
  for (int i = 0; i < 6; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<QBSScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  const auto* receiver =
      dynamic_cast<const WindowedReceiver*>(win->in()->receiver());
  ASSERT_NE(receiver, nullptr);
  // Windows (0,1)..(4,5) each slide one event out: events 0..4 expired.
  EXPECT_EQ(receiver->window_operator().expired_count(), 5u);
}

}  // namespace
}  // namespace cwf

// Micro-benchmarks for the paper's first evaluation goal: "determine if
// there are any performance penalties in implementing scheduling policies
// using our STAFiLOS framework" — host-time costs of the framework's
// moving parts.

#include <benchmark/benchmark.h>

#include <string>

#include "actors/library.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "lrb/harness.h"
#include "lrb/workflow_builder.h"
#include "stafilos/edf_scheduler.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"
#include "stafilos/rb_scheduler.h"
#include "stafilos/rr_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

// Baseline: invoking actor logic directly, no framework.
void BM_DirectActorInvocation(benchmark::State& state) {
  MapActor map("m", [](const Token& t) { return Token(t.AsInt() + 1); });
  map.in()->SetReceiver(0, std::make_unique<QueueReceiver>(map.in()));
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  CWF_CHECK(map.Initialize(&ctx).ok());
  CWEvent e(Token(1), Timestamp(0), WaveTag::Root(1));
  for (auto _ : state) {
    CWF_CHECK(map.in()->receiver(0)->Put(e).ok());
    map.BeginFiring();
    CWF_CHECK(map.Fire().ok());
    benchmark::DoNotOptimize(map.TakePendingOutputs());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectActorInvocation);

std::unique_ptr<AbstractScheduler> MakeSched(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<FIFOScheduler>();
    case 1:
      return std::make_unique<QBSScheduler>();
    case 2:
      return std::make_unique<RRScheduler>();
    case 3:
      return std::make_unique<RBScheduler>();
    default:
      return std::make_unique<EDFScheduler>();
  }
}

const char* SchedName(int kind) {
  switch (kind) {
    case 0:
      return "FIFO";
    case 1:
      return "QBS";
    case 2:
      return "RR";
    case 3:
      return "RB";
    default:
      return "EDF";
  }
}

// Full STAFiLOS path: source -> map -> sink under the SCWF director; cost
// per tuple includes enqueue, scheduling decision, delivery and firing.
void BM_ScwfDispatchPerTuple(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const size_t batch = 1024;
  for (auto _ : state) {
    state.PauseTiming();
    Workflow wf("w");
    auto feed = std::make_shared<PushChannel>();
    auto* src = wf.AddActor<StreamSourceActor>("src", feed);
    auto* map = wf.AddActor<MapActor>(
        "map", [](const Token& t) { return Token(t.AsInt() + 1); });
    auto* sink = wf.AddActor<NullSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
    CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
    for (size_t i = 0; i < batch; ++i) {
      feed->Push(Token(static_cast<int64_t>(i)), Timestamp(0));
    }
    feed->Close();
    VirtualClock clock;
    CostModel cm;
    SCWFDirector d(MakeSched(kind));
    CWF_CHECK(d.Initialize(&wf, &clock, &cm).ok());
    state.ResumeTiming();
    CWF_CHECK(d.Run(Timestamp::Max()).ok());
    benchmark::DoNotOptimize(sink->consumed_events());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(SchedName(kind));
}
BENCHMARK(BM_ScwfDispatchPerTuple)->DenseRange(0, 4);

// LRB-shaped dispatch under QBS: one source fans out to five consumers that
// merge back into a short tail (ten actors), so every tuple costs five
// enqueues and a merge, as a Linear Road position report does.
void BM_FanOutDispatchPerTuple(benchmark::State& state) {
  const size_t batch = 1024;
  for (auto _ : state) {
    state.PauseTiming();
    Workflow wf("fan_out");
    auto feed = std::make_shared<PushChannel>();
    auto* src = wf.AddActor<StreamSourceActor>("src", feed);
    auto* merge =
        wf.AddActor<MapActor>("merge", [](const Token& t) { return t; });
    for (int i = 0; i < 5; ++i) {
      auto* consumer = wf.AddActor<MapActor>(
          "c" + std::to_string(i),
          [i](const Token& t) { return Token(t.AsInt() + i); });
      CWF_CHECK(wf.Connect(src->out(), consumer->in()).ok());
      CWF_CHECK(wf.Connect(consumer->out(), merge->in()).ok());
    }
    auto* tail = wf.AddActor<MapActor>(
        "tail", [](const Token& t) { return Token(t.AsInt() * 2); });
    auto* sink = wf.AddActor<NullSink>("sink");
    auto* audit = wf.AddActor<NullSink>("audit");
    CWF_CHECK(wf.Connect(merge->out(), tail->in()).ok());
    CWF_CHECK(wf.Connect(merge->out(), audit->in()).ok());
    CWF_CHECK(wf.Connect(tail->out(), sink->in()).ok());
    for (size_t i = 0; i < batch; ++i) {
      feed->Push(Token(static_cast<int64_t>(i)), Timestamp(0));
    }
    feed->Close();
    VirtualClock clock;
    CostModel cm;
    SCWFDirector d(std::make_unique<QBSScheduler>());
    CWF_CHECK(d.Initialize(&wf, &clock, &cm).ok());
    state.ResumeTiming();
    CWF_CHECK(d.Run(Timestamp::Max()).ok());
    benchmark::DoNotOptimize(sink->consumed_events());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FanOutDispatchPerTuple);

// The scheduling decision in isolation.
void BM_GetNextActorDecision(benchmark::State& state) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  wf.AddActor<StreamSourceActor>("src", feed);
  std::vector<MapActor*> actors;
  for (int i = 0; i < 10; ++i) {
    actors.push_back(wf.AddActor<MapActor>(
        "a" + std::to_string(i), [](const Token& t) { return t; }));
  }
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<QBSScheduler>());
  CWF_CHECK(d.Initialize(&wf, &clock, &cm).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.scheduler()->GetNextActor());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetNextActorDecision);

// Set-up of the Linear Road application: Build + Initialize of the
// hierarchical workflow (the admission gate of each level, receivers, the
// scheduler and the DDF composite) under SCWF+QBS (0) and simulated-thread
// PNCWF (1). Tear-down is not timed.
void BM_LRBInitialize(benchmark::State& state) {
  const bool pncwf = state.range(0) == 1;
  const CostModel costs = lrb::DefaultLRBCostModel();
  for (auto _ : state) {
    {
      auto feed = std::make_shared<PushChannel>();
      feed->Close();
      Result<lrb::LRBApplication> app =
          lrb::BuildLRBApplication(feed, /*hierarchical=*/true);
      CWF_CHECK(app.ok());
      VirtualClock clock;
      std::unique_ptr<Director> director;
      if (pncwf) {
        PNCWFOptions options;
        options.mode = PNCWFMode::kSimulatedThreads;
        director = std::make_unique<PNCWFDirector>(options);
      } else {
        director = std::make_unique<SCWFDirector>(
            lrb::MakeScheduler(lrb::ExperimentOptions{}));
      }
      CWF_CHECK(
          director->Initialize(app->workflow.get(), &clock, &costs).ok());
      benchmark::DoNotOptimize(app->workflow.get());
      state.PauseTiming();
    }  // tear-down
    state.ResumeTiming();
  }
  state.SetLabel(pncwf ? "PNCWF" : "SCWF+QBS");
}
BENCHMARK(BM_LRBInitialize)->Arg(0)->Arg(1);

}  // namespace
}  // namespace cwf

// Runtime validation of the static capacity planner: drive every built-in
// graph under its declared deployment and assert the observed receiver
// high-water marks never exceed the planner's per-channel bounds. Also
// covers the PNCWF blocking-put/backpressure mode the plan enables.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "actors/library.h"
#include "analysis/builtin_graphs.h"
#include "analysis/capacity_planner.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "lrb/generator.h"
#include "obs/export_server.h"
#include "obs/metrics.h"
#include "stafilos/edf_scheduler.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"
#include "stafilos/rb_scheduler.h"
#include "stafilos/rr_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

using analysis::AnalysisOptionsFor;
using analysis::BuildBuiltinGraphs;
using analysis::BuiltinGraph;
using analysis::CapacityPlan;
using analysis::PlanCapacity;

std::unique_ptr<AbstractScheduler> SchedulerFor(const BuiltinGraph& graph) {
  const std::string policy =
      graph.scheduler ? graph.scheduler->policy : "QBS";
  if (policy == "RR") return std::make_unique<RRScheduler>();
  if (policy == "RB") return std::make_unique<RBScheduler>();
  if (policy == "FIFO") return std::make_unique<FIFOScheduler>();
  if (policy == "EDF") return std::make_unique<EDFScheduler>();
  return std::make_unique<QBSScheduler>();
}

std::unique_ptr<Director> DirectorFor(const BuiltinGraph& graph) {
  if (graph.director == "PNCWF") {
    PNCWFOptions options;
    options.mode = PNCWFMode::kSimulatedThreads;
    return std::make_unique<PNCWFDirector>(options);
  }
  return std::make_unique<SCWFDirector>(SchedulerFor(graph));
}

/// Feed every stream source of an example graph at its declared rate for
/// `seconds` of virtual time. Tokens respect the source's declared schema
/// (scalar streams get scalars); record tokens carry every group-by field
/// the catalog uses so grouped windows can extract their keys.
void FeedExampleSources(const BuiltinGraph& graph, double seconds) {
  for (const auto& actor : graph.workflow->actors()) {
    auto* source = dynamic_cast<StreamSourceActor*>(actor.get());
    if (source == nullptr) {
      continue;
    }
    const auto rate = graph.source_rates.find(source->name());
    ASSERT_NE(rate, graph.source_rates.end())
        << graph.name << " source '" << source->name()
        << "' has no declared rate";
    const double per_second = rate->second.max;
    const int total = static_cast<int>(per_second * seconds);
    const TokenType declared = source->out()->schema();
    for (int i = 0; i < total; ++i) {
      const Timestamp arrival = Timestamp::Seconds(i / per_second);
      if (declared == TokenType::Double()) {
        source->channel()->Push(Token(static_cast<double>(i)), arrival);
        continue;
      }
      if (declared == TokenType::Int()) {
        source->channel()->Push(Token(int64_t{i}), arrival);
        continue;
      }
      auto record = std::make_shared<Record>();
      record->Set("order", Value(int64_t{i % 5}))
          .Set("warehouse", Value("w" + std::to_string(i % 3)))
          .Set("kind", Value(i % 2 == 0 ? "order" : "scan"))
          .Set("object", Value(int64_t{i % 4}))
          .Set("brightness", Value(static_cast<double>(i % 9)))
          .Set("t", Value(int64_t{i}))
          .Set("value", Value(static_cast<double>(i)))
          .Set("v", Value(static_cast<double>(i)));
      source->channel()->Push(Token(RecordPtr(std::move(record))), arrival);
    }
    source->channel()->Close();
  }
}

/// Feed the LRB Source with a constant-rate generated workload.
void FeedLrbSource(const BuiltinGraph& graph, Timestamp* end) {
  StreamSourceActor* source = nullptr;
  for (const auto& actor : graph.workflow->actors()) {
    if (auto* s = dynamic_cast<StreamSourceActor*>(actor.get())) {
      source = s;
      break;
    }
  }
  ASSERT_NE(source, nullptr) << graph.name;
  lrb::GeneratorOptions workload;
  workload.duration = Seconds(20);
  workload.initial_rate = 25.0;
  workload.rate_slope_per_sec = 0.0;
  workload.max_rate = 25.0;
  lrb::Generator generator(workload);
  const Trace trace = generator.Generate();
  *end = trace.EndTime();
  source->channel()->PushTrace(trace);
  source->channel()->Close();
}

/// Max observed high-water mark across the workflow's top-level channels,
/// asserting each bounded channel stayed within its planned capacity.
uint64_t CheckHighWaterAgainstPlan(const BuiltinGraph& graph,
                                   const CapacityPlan& plan) {
  uint64_t peak = 0;
  for (const ChannelSpec& ch : graph.workflow->channels()) {
    const Receiver* receiver = ch.to->receiver(ch.to_channel);
    if (receiver == nullptr) {
      ADD_FAILURE() << graph.name << ": no receiver on "
                    << ch.to->FullName();
      continue;
    }
    peak = std::max(peak, receiver->high_water_mark());
    const size_t bound = plan.CapacityFor(ch.to->FullName(), ch.to_channel);
    if (bound > 0) {
      EXPECT_LE(receiver->high_water_mark(), bound)
          << graph.name << ": " << ch.from->FullName() << " -> "
          << ch.to->FullName() << "[" << ch.to_channel << "]";
    }
  }
  return peak;
}

TEST(CapacityRuntimeTest, BuiltinGraphHighWaterNeverExceedsPlan) {
  for (BuiltinGraph& graph : BuildBuiltinGraphs()) {
    SCOPED_TRACE(graph.name);
    const CapacityPlan plan =
        PlanCapacity(*graph.workflow, AnalysisOptionsFor(graph));

    Timestamp feed_end = Timestamp::Seconds(10);
    const bool is_lrb = graph.name.rfind("lrb", 0) == 0;
    if (is_lrb) {
      FeedLrbSource(graph, &feed_end);
    } else {
      FeedExampleSources(graph, 10.0);
    }

    std::unique_ptr<Director> director = DirectorFor(graph);
    director->set_capacity_plan(plan);
    VirtualClock clock;
    const CostModel fallback;
    const CostModel* costs =
        graph.cost_model ? graph.cost_model.get() : &fallback;
    ASSERT_TRUE(
        director->Initialize(graph.workflow, &clock, costs).ok());
    // Run past the feed plus the longest (60 s) window so tumbling time
    // windows get to close and drain.
    const Status run =
        director->Run(feed_end + Seconds(120));
    ASSERT_TRUE(run.ok()) << run.ToString();

    const uint64_t peak = CheckHighWaterAgainstPlan(graph, plan);
    EXPECT_GT(peak, 0u) << "no event ever queued — vacuous check";
    ASSERT_TRUE(director->Wrapup().ok());
  }
}

TEST(CapacityRuntimeTest, DirectorAppliesPlanToReceivers) {
  std::vector<BuiltinGraph> graphs = BuildBuiltinGraphs();
  BuiltinGraph& graph = graphs.front();  // quickstart
  const CapacityPlan plan =
      PlanCapacity(*graph.workflow, AnalysisOptionsFor(graph));
  std::unique_ptr<Director> director = DirectorFor(graph);
  director->set_capacity_plan(plan);
  VirtualClock clock;
  const CostModel costs;
  ASSERT_TRUE(director->Initialize(graph.workflow, &clock, &costs).ok());
  bool saw_bounded = false;
  for (const ChannelSpec& ch : graph.workflow->channels()) {
    const Receiver* receiver = ch.to->receiver(ch.to_channel);
    ASSERT_NE(receiver, nullptr);
    const size_t bound = plan.CapacityFor(ch.to->FullName(), ch.to_channel);
    EXPECT_EQ(receiver->capacity(), bound);
    saw_bounded |= bound > 0;
    // SCWF keeps the bound advisory: the planner's claim is verified, not
    // enforced.
    EXPECT_EQ(receiver->overflow_policy(), OverflowPolicy::kUnbounded);
  }
  EXPECT_TRUE(saw_bounded);
  ASSERT_TRUE(director->Wrapup().ok());
}

TEST(CapacityRuntimeTest, WithoutPlanReceiversStayUnbounded) {
  std::vector<BuiltinGraph> graphs = BuildBuiltinGraphs();
  BuiltinGraph& graph = graphs.front();
  std::unique_ptr<Director> director = DirectorFor(graph);
  VirtualClock clock;
  const CostModel costs;
  ASSERT_TRUE(director->Initialize(graph.workflow, &clock, &costs).ok());
  for (const ChannelSpec& ch : graph.workflow->channels()) {
    const Receiver* receiver = ch.to->receiver(ch.to_channel);
    ASSERT_NE(receiver, nullptr);
    EXPECT_EQ(receiver->capacity(), 0u);
  }
  ASSERT_TRUE(director->Wrapup().ok());
}

TEST(CapacityRuntimeTest, ScwfSurfacesQueueHighWaterInStatistics) {
  obs::MetricsRegistry::Global().Reset();
  std::vector<BuiltinGraph> graphs = BuildBuiltinGraphs();
  BuiltinGraph& graph = graphs.front();  // quickstart, SCWF + QBS
  FeedExampleSources(graph, 5.0);
  auto director = std::make_unique<SCWFDirector>(SchedulerFor(graph));
  VirtualClock clock;
  const CostModel costs;
  ASSERT_TRUE(director->Initialize(graph.workflow, &clock, &costs).ok());
  ASSERT_TRUE(director->Run(Timestamp::Seconds(30)).ok());
  // The receivers keep the only depth ledger.
  uint64_t max_high_water = 0;
  for (const ChannelSpec& ch : graph.workflow->channels()) {
    const Receiver* receiver = ch.to->receiver(ch.to_channel);
    ASSERT_NE(receiver, nullptr);
    max_high_water = std::max(max_high_water, receiver->high_water_mark());
  }
  EXPECT_GT(max_high_water, 0u);
#ifdef CWF_OBS_ENABLED
  // /top's queue_hwm column is derived from the cwf_receiver_depth gauges,
  // so its largest entry is the same mark.
  std::istringstream lines(obs::RenderTopTsv(obs::MetricsRegistry::Global()));
  std::string line;
  int64_t top_max = -1;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    std::string field;
    while (std::getline(fields, field, '\t')) {
      row.push_back(field);
    }
    if (row.size() >= 7 && row[0] != "actor" && row[0][0] != '#') {
      top_max = std::max<int64_t>(top_max, std::stoll(row[6]));
    }
  }
  EXPECT_EQ(top_max, static_cast<int64_t>(max_high_water));
#endif
  ASSERT_TRUE(director->Wrapup().ok());
}

// ---- PNCWF backpressure under a deliberately tiny capacity ----

struct BackpressureRig {
  Workflow wf{"bp"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* src;
  MapActor* map;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  // max_batch 1: the simulated director defers actors *between* firings,
  // so a source that injects its whole backlog in one firing would
  // overshoot any bound. One event per firing gives the per-event producer
  // the backpressure mechanism actually throttles.
  explicit BackpressureRig(size_t max_batch = 1) {
    src = wf.AddActor<StreamSourceActor>("src", feed, max_batch);
    map = wf.AddActor<MapActor>(
        "map", [](const Token& t) { return Token(t.AsInt() + 1); });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
    CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
  }

  CapacityPlan TinyPlanFor(const char* consumer, size_t capacity) {
    CapacityPlan plan;
    plan.workflow = wf.name();
    plan.director = "PNCWF";
    analysis::ChannelCapacity ch;
    ch.producer = "src.out";
    ch.consumer = consumer;
    ch.to_channel = 0;
    ch.capacity = capacity;
    ch.bounded = true;
    plan.channels.push_back(ch);
    return plan;
  }
};

TEST(CapacityRuntimeTest, PncwfSimulatedBackpressureBoundsQueue) {
  BackpressureRig rig;
  // Slow consumer, burst arrival: without a bound the map queue would
  // spike to 50.
  rig.cm.SetActorCost("map", {100000, 0, 0});
  for (int i = 0; i < 50; ++i) {
    rig.feed->Push(Token(i), Timestamp(0));
  }
  rig.feed->Close();

  PNCWFOptions options;
  options.mode = PNCWFMode::kSimulatedThreads;
  PNCWFDirector director(options);
  director.set_capacity_plan(rig.TinyPlanFor("map.in", 4));
  ASSERT_TRUE(director.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(director.Run(Timestamp::Max()).ok());

  // Backpressure held the producer: depth never passed the bound, yet
  // every event was eventually delivered.
  const Receiver* receiver = rig.map->in()->receiver(0);
  ASSERT_NE(receiver, nullptr);
  EXPECT_EQ(receiver->overflow_policy(), OverflowPolicy::kBlock);
  EXPECT_LE(receiver->high_water_mark(), 4u);
  EXPECT_EQ(rig.sink->TakeSnapshot().size(), 50u);
  ASSERT_TRUE(director.Wrapup().ok());
}

TEST(CapacityRuntimeTest, PncwfOsThreadsBlockingPutBoundsQueue) {
  BackpressureRig rig;
  for (int i = 0; i < 200; ++i) {
    rig.feed->Push(Token(i), Timestamp(0));
  }
  rig.feed->Close();

  PNCWFOptions options;
  options.mode = PNCWFMode::kOsThreads;
  PNCWFDirector director(options);
  director.set_capacity_plan(rig.TinyPlanFor("map.in", 8));
  RealClock real;
  ASSERT_TRUE(director.Initialize(&rig.wf, &real, nullptr).ok());
  ASSERT_TRUE(director.Run(Timestamp::Max()).ok());

  const Receiver* receiver = rig.map->in()->receiver(0);
  ASSERT_NE(receiver, nullptr);
  EXPECT_LE(receiver->high_water_mark(), 8u);
  EXPECT_EQ(rig.sink->TakeSnapshot().size(), 200u);
  ASSERT_TRUE(director.Wrapup().ok());
}

}  // namespace
}  // namespace cwf

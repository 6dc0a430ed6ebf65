#include <gtest/gtest.h>

#include "analysis/schema_pass.h"
#include "core/composite_actor.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "lrb/generator.h"
#include "lrb/workflow_builder.h"
#include "stafilos/qbs_scheduler.h"

namespace cwf::lrb {
namespace {

TEST(LRBWorkflowTest, BuildsValidHierarchicalGraph) {
  auto feed = std::make_shared<PushChannel>();
  auto app = BuildLRBApplication(feed, /*hierarchical=*/true);
  ASSERT_TRUE(app.ok());
  Workflow* wf = app->workflow.get();
  EXPECT_TRUE(wf->Validate().ok());
  EXPECT_FALSE(wf->HasCycle());
  // Top level: Source, AccidentDetection (composite), InsertAccident,
  // AccidentNotification, AccidentNotificationOut, Avgsv, Avgs, cars,
  // TollCalculation, TollNotification.
  EXPECT_EQ(wf->actors().size(), 10u);
  EXPECT_NE(wf->FindActor("AccidentDetection"), nullptr);
  EXPECT_EQ(wf->FindActor("DetectStoppedCars"), nullptr);  // inside composite
  // Single source: the position-report feed.
  auto sources = wf->Sources();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0], app->source);
}

TEST(LRBWorkflowTest, FlatVariantExposesDetectionActors) {
  auto feed = std::make_shared<PushChannel>();
  auto app = BuildLRBApplication(feed, /*hierarchical=*/false);
  ASSERT_TRUE(app.ok());
  EXPECT_NE(app->workflow->FindActor("DetectStoppedCars"), nullptr);
  EXPECT_NE(app->workflow->FindActor("DetectAccidents"), nullptr);
  EXPECT_EQ(app->workflow->FindActor("AccidentDetection"), nullptr);
  EXPECT_EQ(app->workflow->actors().size(), 11u);
}

TEST(LRBWorkflowTest, DatabaseHasBothRelations) {
  auto feed = std::make_shared<PushChannel>();
  auto app = BuildLRBApplication(feed);
  ASSERT_TRUE(app.ok());
  EXPECT_TRUE(app->database->GetTable(kTableSegmentStats).ok());
  EXPECT_TRUE(app->database->GetTable(kTableAccidents).ok());
  EXPECT_TRUE(app->database->GetTable(kTableSegmentAvgSpeed).ok());
}

TEST(LRBWorkflowTest, WindowSemanticsMatchAppendixA) {
  auto feed = std::make_shared<PushChannel>();
  auto app = BuildLRBApplication(feed, /*hierarchical=*/false);
  ASSERT_TRUE(app.ok());
  Workflow* wf = app->workflow.get();
  // Stopped cars: {Size: 4 tokens, Step: 1, Group-by: car}.
  const WindowSpec& stopped =
      wf->FindActor("DetectStoppedCars")->GetInputPort("in")->spec();
  EXPECT_EQ(stopped.unit, WindowUnit::kTuples);
  EXPECT_EQ(stopped.size, 4);
  EXPECT_EQ(stopped.step, 1);
  EXPECT_EQ(stopped.group_by, std::vector<std::string>{"car"});
  // Toll: {Size: 2 tokens, Step: 1, Group-by: car}.
  const WindowSpec& toll =
      wf->FindActor("TollCalculation")->GetInputPort("in")->spec();
  EXPECT_EQ(toll.size, 2);
  EXPECT_EQ(toll.step, 1);
  // Avgsv: {1 minute, 1 minute, group-by car/xway/dir/seg}.
  const WindowSpec& avgsv = wf->FindActor("Avgsv")->GetInputPort("in")->spec();
  EXPECT_EQ(avgsv.unit, WindowUnit::kTime);
  EXPECT_EQ(avgsv.size, Seconds(60));
  EXPECT_EQ(avgsv.step, Seconds(60));
  EXPECT_EQ(avgsv.group_by.size(), 4u);
  // cars: {1 minute, 1 minute, group-by xway/dir/seg}.
  const WindowSpec& cars = wf->FindActor("cars")->GetInputPort("in")->spec();
  EXPECT_EQ(cars.unit, WindowUnit::kTime);
  EXPECT_EQ(cars.group_by.size(), 3u);
}

TEST(LRBWorkflowTest, PrioritiesFollowTable3) {
  QBSScheduler sched;
  ApplyLRBPriorities(&sched);
  auto feed = std::make_shared<PushChannel>();
  auto app = BuildLRBApplication(feed);
  ASSERT_TRUE(app.ok());
  // Verified through the quantum formula: priority 5 actors receive
  // (40-5)*4b, priority 10 receive (40-10)*4b.
  EXPECT_DOUBLE_EQ(sched.QuantumFor(5), 35 * 4 * 500.0);
  EXPECT_DOUBLE_EQ(sched.QuantumFor(10), 30 * 4 * 500.0);
}

TEST(LRBWorkflowTest, EndToEndSmokeOnTinyWorkload) {
  GeneratorOptions gen_opt;
  gen_opt.duration = Seconds(90);
  Generator gen(gen_opt);
  Trace trace = gen.Generate();
  auto feed = std::make_shared<PushChannel>();
  feed->PushTrace(trace);
  feed->Close();
  auto app = BuildLRBApplication(feed);
  ASSERT_TRUE(app.ok());
  VirtualClock clock;
  CostModel cm;  // light defaults are fine for a smoke run
  SCWFDirector d(std::make_unique<QBSScheduler>());
  ASSERT_TRUE(d.Initialize(app->workflow.get(), &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(120)).ok());
  EXPECT_GT(app->source->injected(), 0u);
  EXPECT_GT(app->toll_calculator->tolls_calculated(), 0u);
  EXPECT_GT(app->toll_series->count(), 0u);
}

TEST(LRBWorkflowTest, InitializeInstallsEveryEnforceableChannelType) {
  // Reference: each level's own schema resolution. Initialize must attach
  // the producer's resolved type (else the consumer's requirement) to the
  // receiver of every channel on both levels, under either execution model.
  for (const bool pncwf : {false, true}) {
    SCOPED_TRACE(pncwf ? "PNCWF (simulated)" : "SCWF+QBS");
    auto feed = std::make_shared<PushChannel>();
    feed->Close();
    auto app = BuildLRBApplication(feed, /*hierarchical=*/true);
    ASSERT_TRUE(app.ok());
    VirtualClock clock;
    CostModel cm;
    std::unique_ptr<Director> d;
    if (pncwf) {
      PNCWFOptions options;
      options.mode = PNCWFMode::kSimulatedThreads;
      d = std::make_unique<PNCWFDirector>(options);
    } else {
      d = std::make_unique<SCWFDirector>(std::make_unique<QBSScheduler>());
    }
    ASSERT_TRUE(d->Initialize(app->workflow.get(), &clock, &cm).ok());

    auto* composite = dynamic_cast<CompositeActor*>(
        app->workflow->FindActor("AccidentDetection"));
    ASSERT_NE(composite, nullptr);
    for (const Workflow* level : {app->workflow.get(), composite->inner()}) {
      SCOPED_TRACE(level->name());
      size_t typed = 0;
      for (const analysis::ChannelSchema& ch :
           analysis::AnalyzeSchemas(*level, {}).channels) {
        const TokenType& want =
            ch.resolved.is_unknown() ? ch.required : ch.resolved;
        const Receiver* r = ch.to_port->receiver(ch.to_channel);
        ASSERT_NE(r, nullptr) << ch.to;
        if (want.is_unknown()) {
          EXPECT_EQ(r->expected_type(), nullptr) << ch.to;
          continue;
        }
        ++typed;
        ASSERT_NE(r->expected_type(), nullptr) << ch.to;
        EXPECT_EQ(*r->expected_type(), want) << ch.to;
        EXPECT_EQ(r->channel_name(), ch.from + " -> " + ch.to);
      }
      // Every LRB port declares its schema.
      EXPECT_EQ(typed, level->channels().size());
    }
  }
}

}  // namespace
}  // namespace cwf::lrb

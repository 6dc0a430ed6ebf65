#include "analysis/liveness_pass.h"

#include <gtest/gtest.h>

#include <string>

#include "analysis/capacity_planner.h"
#include "analysis/diagnostic.h"
#include "test_actors.h"

namespace cwf::analysis {
namespace {

using analysis_test::Node;

AnalysisOptions Under(const std::string& target) {
  AnalysisOptions options;
  options.target_director = target;
  return options;
}

// Hand-built plan: one bounded entry per (consumer, slot) pair.
CapacityPlan ManualPlan(
    std::vector<std::tuple<std::string, std::string, size_t>> bounds) {
  CapacityPlan plan;
  for (auto& [producer, consumer, capacity] : bounds) {
    ChannelCapacity ch;
    ch.producer = producer;
    ch.consumer = consumer;
    ch.to_channel = 0;
    ch.capacity = capacity;
    ch.bounded = true;
    plan.channels.push_back(std::move(ch));
  }
  return plan;
}

TEST(LivenessPassTest, ChannelDemandViolationIsProvablyDeadlocking) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0, WindowSpec::Tuples(5, 5));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  // Capacity 2 < the 5 events the first tumbling window needs: the producer
  // blocks on the full channel before a window can ever form.
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("PNCWF"), ManualPlan({{"src.out", "agg.in", 2}}));
  EXPECT_TRUE(report.blocking_deployment);
  EXPECT_EQ(report.verdict, LivenessVerdict::kProvablyDeadlocking);
  EXPECT_EQ(report.method, "channel-demand");
  ASSERT_FALSE(report.witness.cycle.empty());
  const std::string cycle = report.witness.CycleString();
  EXPECT_NE(cycle.find("src"), std::string::npos);
  EXPECT_NE(cycle.find("agg"), std::string::npos);
}

TEST(LivenessPassTest, InvalidWindowIsNotSimulated) {
  // A zero-size tuple window (CWF1002) never lets the simulated window
  // operator finish a deposit; the analysis must fall back instead of
  // spinning.
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* bad = wf.AddActor<Node>("bad", 1, 0, WindowSpec::Tuples(0, 1));
  ASSERT_TRUE(wf.Connect(src->out(), bad->in()).ok());
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("PNCWF"), ManualPlan({{"src.out", "bad.in", 8}}));
  EXPECT_NE(report.method, "sdf-simulation");
  bool noted = false;
  for (const std::string& note : report.notes) {
    noted = noted || note.find("invalid window") != std::string::npos;
  }
  EXPECT_TRUE(noted) << report.ToText();
}

TEST(LivenessPassTest, TokenStarvedLoopDeadlocksInSimulation) {
  Workflow wf("w");
  auto* a = wf.AddActor<Node>("A", 1, 1);
  auto* b = wf.AddActor<Node>("B", 1, 1);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(b->out(), a->in()).ok());
  // Per-channel demand (1) is met, so only the bounded-execution simulation
  // can see that neither actor ever accumulates a first token.
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("PNCWF"),
      ManualPlan({{"A.out", "B.in", 1}, {"B.out", "A.in", 1}}));
  EXPECT_EQ(report.verdict, LivenessVerdict::kProvablyDeadlocking);
  EXPECT_EQ(report.method, "sdf-simulation");
  EXPECT_FALSE(report.witness.cycle.empty());
}

TEST(LivenessPassTest, BoundedChainSimulatesLive) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* map = wf.AddActor<Node>("map", 1, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  ASSERT_TRUE(wf.Connect(src->out(), map->in()).ok());
  ASSERT_TRUE(wf.Connect(map->out(), sink->in()).ok());
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("PNCWF"),
      ManualPlan({{"src.out", "map.in", 1}, {"map.out", "sink.in", 1}}));
  EXPECT_EQ(report.verdict, LivenessVerdict::kProvablyLive);
  EXPECT_EQ(report.method, "sdf-simulation");
  EXPECT_TRUE(report.witness.empty());
}

TEST(LivenessPassTest, NonBlockingDeploymentIsLiveByConstruction) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0, WindowSpec::Tuples(5, 5));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("SCWF"), ManualPlan({{"src.out", "agg.in", 2}}));
  // SCWF keeps plan bounds advisory: puts never block, so the deployment
  // verdict is live while the blocking what-if still carries the hazard.
  EXPECT_FALSE(report.blocking_deployment);
  EXPECT_EQ(report.verdict, LivenessVerdict::kProvablyLive);
  EXPECT_EQ(report.method, "non-blocking deployment");
  EXPECT_EQ(report.blocking_verdict, LivenessVerdict::kProvablyDeadlocking);
  EXPECT_EQ(report.blocking_method, "channel-demand");
}

TEST(LivenessPassTest, GroupByWindowOnDiamondIsUnknown) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 2);
  auto* left = wf.AddActor<Node>("left", 1, 1);
  auto* right = wf.AddActor<Node>("right", 1, 1);
  auto* join = wf.AddActor<Node>(
      "join", 2, 0, WindowSpec::Tuples(2, 2).GroupBy({"key"}));
  ASSERT_TRUE(wf.Connect(src->out(0), left->in()).ok());
  ASSERT_TRUE(wf.Connect(src->out(1), right->in()).ok());
  ASSERT_TRUE(wf.Connect(left->out(), join->in(0)).ok());
  ASSERT_TRUE(wf.Connect(right->out(), join->in(1)).ok());
  // Group-by windows have data-dependent formation (no certifiable drain)
  // and the diamond puts every channel on an undirected cycle: neither the
  // simulator nor the structural certificate applies.
  const LivenessReport report = AnalyzeLiveness(
      wf, Under("PNCWF"),
      ManualPlan({{"src.out0", "left.in", 8},
                  {"src.out1", "right.in", 8},
                  {"left.out", "join.in0", 8},
                  {"right.out", "join.in1", 8}}));
  EXPECT_EQ(report.verdict, LivenessVerdict::kUnknown);
  EXPECT_FALSE(report.notes.empty());
}

TEST(LivenessPassTest, SynthesisBumpsCapacityToFirstWindowDemand) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0, WindowSpec::Tuples(5, 5));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  CapacityPlan plan = ManualPlan({{"src.out", "agg.in", 2}});
  const LivenessReport report =
      SynthesizeLiveCapacities(wf, Under("PNCWF"), &plan);
  EXPECT_EQ(report.blocking_verdict, LivenessVerdict::kProvablyLive);
  EXPECT_EQ(plan.channels[0].capacity, 5u);
  ASSERT_EQ(plan.liveness_bumps.size(), 1u);
  EXPECT_EQ(plan.liveness_bumps[0].from_capacity, 2u);
  EXPECT_EQ(plan.liveness_bumps[0].to_capacity, 5u);
  EXPECT_EQ(plan.liveness_verdict, "provably-live");
}

TEST(LivenessPassTest, PlanCapacityEmitsLivePlansByConstruction) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0, WindowSpec::Tuples(5, 5));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  AnalysisOptions options = Under("PNCWF");
  options.source_rates = {{"src", RateInterval::Exact(100.0)}};
  const CapacityPlan plan = PlanCapacity(wf, options);
  EXPECT_EQ(plan.liveness_verdict, "provably-live");
  // The quantitative bounds already exceed first-window demand here, so
  // synthesis had nothing to fix.
  EXPECT_TRUE(plan.liveness_bumps.empty());
}

TEST(LivenessPassTest, ReportLivenessMapsVerdictsToDiagnostics) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0, WindowSpec::Tuples(5, 5));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  const AnalysisOptions pncwf = Under("PNCWF");

  DiagnosticBag deadlocking;
  ReportLiveness(AnalyzeLiveness(wf, pncwf,
                                 ManualPlan({{"src.out", "agg.in", 2}})),
                 pncwf, &deadlocking);
  EXPECT_TRUE(deadlocking.HasCode("CWF6002"));
  EXPECT_EQ(deadlocking.ErrorCount(), 1u);

  // The same undersized plan under a non-blocking deployment is silent.
  const AnalysisOptions scwf = Under("SCWF");
  DiagnosticBag advisory;
  ReportLiveness(AnalyzeLiveness(wf, scwf,
                                 ManualPlan({{"src.out", "agg.in", 2}})),
                 scwf, &advisory);
  EXPECT_TRUE(advisory.empty());

  // A live plan is silent even under the blocking deployment.
  DiagnosticBag live;
  ReportLiveness(AnalyzeLiveness(wf, pncwf,
                                 ManualPlan({{"src.out", "agg.in", 8}})),
                 pncwf, &live);
  EXPECT_TRUE(live.empty());
}

TEST(LivenessPassTest, AnalyzerSurfacesCWF6003ForUnknownBlockingPlans) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 2);
  auto* left = wf.AddActor<Node>("left", 1, 1);
  auto* right = wf.AddActor<Node>("right", 1, 1);
  auto* join = wf.AddActor<Node>(
      "join", 2, 0, WindowSpec::Tuples(2, 2).GroupBy({"key"}));
  ASSERT_TRUE(wf.Connect(src->out(0), left->in()).ok());
  ASSERT_TRUE(wf.Connect(src->out(1), right->in()).ok());
  ASSERT_TRUE(wf.Connect(left->out(), join->in(0)).ok());
  ASSERT_TRUE(wf.Connect(right->out(), join->in(1)).ok());
  AnalysisOptions options = Under("PNCWF");
  const LivenessReport report = AnalyzeLiveness(
      wf, options,
      ManualPlan({{"src.out0", "left.in", 8},
                  {"src.out1", "right.in", 8},
                  {"left.out", "join.in0", 8},
                  {"right.out", "join.in1", 8}}));
  DiagnosticBag diagnostics;
  ReportLiveness(report, options, &diagnostics);
  EXPECT_TRUE(diagnostics.HasCode("CWF6003"));
  EXPECT_EQ(diagnostics.ErrorCount(), 0u);
}

}  // namespace
}  // namespace cwf::analysis

#include <gtest/gtest.h>

#include "actors/library.h"
#include "core/composite_actor.h"
#include "core/workflow.h"
#include "directors/ddf_director.h"

namespace cwf {
namespace {

Token Identity(const Token& t) { return t; }

std::unique_ptr<MapActor> Node(const std::string& name) {
  return std::make_unique<MapActor>(name, Identity);
}

TEST(WorkflowTest, AddAndFindActors) {
  Workflow wf("w");
  Actor* a = wf.AdoptActor(Node("A"));
  EXPECT_EQ(wf.FindActor("A"), a);
  EXPECT_EQ(wf.FindActor("B"), nullptr);
  EXPECT_EQ(wf.actors().size(), 1u);
}

TEST(WorkflowDeathTest, DuplicateNameAborts) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  EXPECT_DEATH(wf.AdoptActor(Node("A")), "duplicate actor name");
}

TEST(WorkflowTest, ConnectByName) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  EXPECT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  ASSERT_EQ(wf.channels().size(), 1u);
  EXPECT_EQ(wf.channels()[0].from->FullName(), "A.out");
  EXPECT_EQ(wf.channels()[0].to->FullName(), "B.in");
  EXPECT_EQ(wf.channels()[0].to_channel, 0u);
}

TEST(WorkflowTest, ConnectErrors) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  EXPECT_EQ(wf.Connect("X", "out", "A", "in").code(), StatusCode::kNotFound);
  EXPECT_EQ(wf.Connect("A", "out", "X", "in").code(), StatusCode::kNotFound);
  EXPECT_EQ(wf.Connect("A", "bad", "A", "in").code(), StatusCode::kNotFound);
  EXPECT_EQ(wf.Connect("A", "out", "A", "bad").code(), StatusCode::kNotFound);
  EXPECT_EQ(wf.Connect(nullptr, nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(WorkflowTest, FanInAssignsChannelSlots) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  wf.AdoptActor(Node("C"));
  ASSERT_TRUE(wf.Connect("A", "out", "C", "in").ok());
  ASSERT_TRUE(wf.Connect("B", "out", "C", "in").ok());
  EXPECT_EQ(wf.channels()[0].to_channel, 0u);
  EXPECT_EQ(wf.channels()[1].to_channel, 1u);
}

TEST(WorkflowTest, SourcesAndSinks) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  wf.AdoptActor(Node("C"));
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  ASSERT_TRUE(wf.Connect("B", "out", "C", "in").ok());
  auto sources = wf.Sources();
  auto sinks = wf.Sinks();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->name(), "A");
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0]->name(), "C");
}

TEST(WorkflowTest, UpstreamDownstreamDeduplicated) {
  Workflow wf("w");
  auto* a = wf.AdoptActor(Node("A"));
  auto* b = wf.AdoptActor(std::make_unique<MapActor>("B", Identity));
  // Two parallel channels A->B.
  auto* bm = static_cast<MapActor*>(b);
  (void)bm;
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  EXPECT_EQ(wf.DownstreamOf(a).size(), 1u);
  EXPECT_EQ(wf.UpstreamOf(b).size(), 1u);
}

TEST(WorkflowTest, CycleDetection) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  wf.AdoptActor(Node("C"));
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  ASSERT_TRUE(wf.Connect("B", "out", "C", "in").ok());
  EXPECT_FALSE(wf.HasCycle());
  ASSERT_TRUE(wf.Connect("C", "out", "A", "in").ok());
  EXPECT_TRUE(wf.HasCycle());
}

TEST(WorkflowTest, ValidatePassesOnGoodGraph) {
  Workflow wf("w");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  EXPECT_TRUE(wf.Validate().ok());
}

TEST(WorkflowTest, ValidateRejectsSelfLoop) {
  Workflow wf("w");
  auto* a = static_cast<MapActor*>(wf.AdoptActor(Node("A")));
  ASSERT_TRUE(wf.Connect(a->out(), a->in()).ok());
  EXPECT_EQ(wf.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(WorkflowTest, ValidateRejectsBadWindowSpec) {
  Workflow wf("w");
  auto* a = wf.AddActor<MapActor>("A", Identity);
  auto* b = wf.AddActor<MapActor>("B", Identity,
                                  WindowSpec::Tuples(0, 1));  // invalid size
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  EXPECT_FALSE(wf.Validate().ok());
}

TEST(WorkflowTest, ConnectRejectsForeignActorPorts) {
  Workflow wf1("w1");
  Workflow wf2("w2");
  auto* a = wf1.AddActor<MapActor>("A", Identity);
  auto* b = wf2.AddActor<MapActor>("B", Identity);
  EXPECT_EQ(wf1.Connect(a->out(), b->in()).code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkflowTest, ExplicitSlotConnectRecordsTheRequestedSlot) {
  Workflow wf("w");
  auto* a = wf.AddActor<MapActor>("A", Identity);
  auto* b = wf.AddActor<MapActor>("B", Identity);
  auto* c = wf.AddActor<MapActor>("C", Identity);
  // Out-of-order wiring is allowed: slots describe intent, not sequence.
  ASSERT_TRUE(wf.Connect(a->out(), c->in(), 1).ok());
  ASSERT_TRUE(wf.Connect(b->out(), c->in(), 0).ok());
  EXPECT_EQ(wf.channels()[0].to_channel, 1u);
  EXPECT_EQ(wf.channels()[1].to_channel, 0u);
  EXPECT_TRUE(wf.Validate().ok());
  EXPECT_EQ(wf.Connect(nullptr, c->in(), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkflowTest, ValidateRejectsDuplicateChannelSlot) {
  Workflow wf("w");
  auto* a = wf.AddActor<MapActor>("A", Identity);
  auto* b = wf.AddActor<MapActor>("B", Identity);
  auto* c = wf.AddActor<MapActor>("C", Identity);
  // Both producers claim slot 0 of C.in: construction succeeds (Ptolemy
  // style — build freely, validate once), Validate rejects.
  ASSERT_TRUE(wf.Connect(a->out(), c->in(), 0).ok());
  ASSERT_TRUE(wf.Connect(b->out(), c->in(), 0).ok());
  const Status status = wf.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CWF1004"), std::string::npos);
}

TEST(WorkflowTest, HasCycleWithFanInAndFanOut) {
  Workflow wf("diamond");
  wf.AdoptActor(Node("A"));
  wf.AdoptActor(Node("B"));
  wf.AdoptActor(Node("C"));
  wf.AdoptActor(Node("D"));
  ASSERT_TRUE(wf.Connect("A", "out", "B", "in").ok());
  ASSERT_TRUE(wf.Connect("A", "out", "C", "in").ok());
  ASSERT_TRUE(wf.Connect("B", "out", "D", "in").ok());
  ASSERT_TRUE(wf.Connect("C", "out", "D", "in").ok());
  // Reconvergent fan-in is NOT a cycle.
  EXPECT_FALSE(wf.HasCycle());
  ASSERT_TRUE(wf.Connect("D", "out", "A", "in").ok());
  EXPECT_TRUE(wf.HasCycle());
}

TEST(WorkflowTest, CycleThroughCompositeBoundary) {
  // comp -> post -> comp: the composite participates in the outer cycle as
  // one node regardless of its inner structure.
  Workflow wf("outer");
  auto* comp =
      wf.AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
  auto* inner_map = comp->inner()->AddActor<MapActor>("inner_map", Identity);
  InputPort* comp_in = comp->ExposeInput("in", inner_map->in());
  OutputPort* comp_out = comp->ExposeOutput("out", inner_map->out());
  auto* post = wf.AddActor<MapActor>("post", Identity);
  ASSERT_TRUE(wf.Connect(comp_out, post->in()).ok());
  EXPECT_FALSE(wf.HasCycle());
  ASSERT_TRUE(wf.Connect(post->out(), comp_in).ok());
  EXPECT_TRUE(wf.HasCycle());
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

// Two-level graph: a source feeding a composite whose inner pair is wired.
std::unique_ptr<Workflow> DotFixture() {
  auto wf = std::make_unique<Workflow>("outer");
  auto* src = wf->AddActor<MapActor>("src", Identity);
  auto* comp =
      wf->AddActor<CompositeActor>("stage", std::make_unique<DDFDirector>());
  auto* inner_map = comp->inner()->AddActor<MapActor>("inner_map", Identity);
  auto* inner_sink = comp->inner()->AddActor<MapActor>("inner_sink", Identity);
  EXPECT_TRUE(comp->inner()->Connect(inner_map->out(), inner_sink->in()).ok());
  EXPECT_TRUE(wf->Connect(src->out(), comp->ExposeInput("in", inner_map->in()))
                  .ok());
  return wf;
}

TEST(WorkflowTest, ToDotIsReproducible) {
  // Both graphs are alive at once, so their actors sit at different
  // addresses; node names must not depend on them.
  const std::unique_ptr<Workflow> a = DotFixture();
  const std::unique_ptr<Workflow> b = DotFixture();
  const std::string dot = a->ToDot();
  EXPECT_EQ(dot, b->ToDot());
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos) << dot;
  EXPECT_NE(dot.find("subgraph cluster_n1 {"), std::string::npos) << dot;
  EXPECT_NE(dot.find("n1_0 -> n1_1"), std::string::npos) << dot;
}

TEST(WorkflowDotTest, RendersNodesEdgesAndWindowLabels) {
  Workflow wf("dotted");
  auto* a = wf.AddActor<MapActor>("alpha", Identity);
  auto* b = wf.AddActor<WindowFnActor>(
      "beta", WindowSpec::Tuples(4, 1).GroupBy({"car"}),
      [](const Window&, std::vector<Token>*) { return Status::OK(); });
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  const std::string dot = wf.ToDot();
  EXPECT_NE(dot.find("digraph \"dotted\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"alpha\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"beta\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // The windowed channel is labelled with its semantics.
  EXPECT_NE(dot.find("size=4"), std::string::npos);
  // Sources are drawn distinctly.
  EXPECT_NE(dot.find("invhouse"), std::string::npos);
}

TEST(WorkflowDotTest, CompositeRendersAsCluster) {
  Workflow wf("outer");
  auto* comp =
      wf.AddActor<CompositeActor>("stage", std::make_unique<DDFDirector>());
  auto* inner_map = comp->inner()->AddActor<MapActor>("inner_map", Identity);
  auto* inner_sink = comp->inner()->AddActor<MapActor>("inner_sink", Identity);
  ASSERT_TRUE(comp->inner()->Connect(inner_map->out(), inner_sink->in()).ok());
  comp->ExposeInput("in", inner_map->in());
  const std::string dot = wf.ToDot();
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("label=\"stage\""), std::string::npos);
  // Inner actors and channels render inside the cluster.
  EXPECT_NE(dot.find("label=\"inner_map\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"inner_sink\""), std::string::npos);
}

TEST(WorkflowDotTest, DotOptionsFillNodesAndTintClusters) {
  Workflow wf("outer");
  auto* plain = wf.AddActor<MapActor>("plain", Identity);
  auto* comp =
      wf.AddActor<CompositeActor>("stage", std::make_unique<DDFDirector>());
  auto* inner_map = comp->inner()->AddActor<MapActor>("inner_map", Identity);
  comp->ExposeInput("in", inner_map->in());
  Workflow::DotOptions options;
  options.node_fill[plain] = "red";
  options.node_fill[comp] = "#ffe0b0";
  const std::string dot = wf.ToDot(options);
  EXPECT_NE(dot.find("fillcolor=\"red\""), std::string::npos);
  EXPECT_NE(dot.find("bgcolor=\"#ffe0b0\""), std::string::npos);
  // The default rendering stays unstyled.
  const std::string bare = wf.ToDot();
  EXPECT_EQ(bare.find("fillcolor"), std::string::npos);
  EXPECT_EQ(bare.find("bgcolor"), std::string::npos);
}

}  // namespace
}  // namespace cwf

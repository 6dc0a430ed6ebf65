// The schema/type-flow pass (analysis/schema_pass.h): forward propagation,
// per-channel compatibility checks (one CWF70xx trigger + one clean case
// per code), transfer-function inference, fan-in joins, and composite
// boundary propagation.

#include "analysis/schema_pass.h"

#include <gtest/gtest.h>

#include <string>

#include "actors/stream_ops.h"
#include "core/composite_actor.h"
#include "directors/ddf_director.h"
#include "test_actors.h"

namespace cwf::analysis {
namespace {

using analysis_test::Node;

const SchemaFinding* FindCode(const SchemaReport& report,
                              const std::string& code) {
  for (const SchemaFinding& f : report.findings) {
    if (f.code == code) {
      return &f;
    }
  }
  return nullptr;
}

SchemaReport Analyze(const Workflow& wf) {
  return AnalyzeSchemas(wf, AnalysisOptions{});
}

RecordSchema TimedSpeed() {
  RecordSchema s;
  s.Int("time").Double("speed");
  return s;
}

TEST(SchemaPassTest, CleanTypedChainResolvesAndReportsNothing) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty()) << report.ToText();
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_EQ(report.channels[0].resolved, TokenType::Int());
  EXPECT_TRUE(report.channels[0].declared);
  EXPECT_FALSE(report.channels[0].mismatched);
  EXPECT_EQ(report.ErrorCount(), 0u);
}

TEST(SchemaPassTest, ScalarKindMismatchIsCWF7001) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Str());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7001");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kError);
  // The finding names the channel, both endpoints included.
  EXPECT_NE(f->message.find("src.out"), std::string::npos);
  EXPECT_NE(f->message.find("sink.in"), std::string::npos);
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_TRUE(report.channels[0].mismatched);
}

TEST(SchemaPassTest, DisjointFieldTypeIsCWF7002Error) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema have;
  have.Str("speed");
  src->out()->set_schema(TokenType::Record(have));
  RecordSchema need;
  need.Double("speed");
  sink->in()->set_required_schema(TokenType::Record(need));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7002");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("speed"), std::string::npos);
}

TEST(SchemaPassTest, OverlappingFieldTypeIsCWF7002Warning) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema have;
  have.Field("speed", ScalarType::Double().Union(ScalarType::Null()));
  src->out()->set_schema(TokenType::Record(have));
  RecordSchema need;
  need.Double("speed");
  sink->in()->set_required_schema(TokenType::Record(need));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7002");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(report.ErrorCount(), 0u);
}

TEST(SchemaPassTest, MissingRequiredFieldIsCWF7003) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema have;
  have.Int("time");
  src->out()->set_schema(TokenType::Record(have));
  sink->in()->set_required_schema(TokenType::Record(TimedSpeed()));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7003");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("speed"), std::string::npos);
}

TEST(SchemaPassTest, OptionalFieldSatisfiesOptionalRequirementCleanly) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema have;
  have.Int("time").Field("speed", ScalarType::Double(), /*required=*/false);
  src->out()->set_schema(TokenType::Record(have));
  RecordSchema need;
  need.Int("time").Field("speed", ScalarType::Double(), /*required=*/false);
  sink->in()->set_required_schema(TokenType::Record(need));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  EXPECT_TRUE(Analyze(wf).findings.empty());
}

TEST(SchemaPassTest, OptionalFieldIntoRequiredFieldIsCWF7003Warning) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema have;
  have.Int("time").Field("speed", ScalarType::Double(), /*required=*/false);
  src->out()->set_schema(TokenType::Record(have));
  sink->in()->set_required_schema(TokenType::Record(TimedSpeed()));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7003");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kWarning);
}

TEST(SchemaPassTest, RecordIntoScalarPortIsCWF7004) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Record(TimedSpeed()));
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7004");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(SchemaPassTest, ScalarIntoRecordPortIsCWF7004) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Record(TimedSpeed()));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7004");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(SchemaPassTest, NilIntoDataPortIsCWF7005) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Int().OrNil());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7005");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(SchemaPassTest, NilTolerantPortAcceptsControlTokensCleanly) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Int().OrNil());
  sink->in()->set_required_schema(TokenType::Int().OrNil());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  EXPECT_TRUE(Analyze(wf).findings.empty());
}

TEST(SchemaPassTest, UndeclaredProducerIntoStrictPortIsCWF7006) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7006");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(report.ErrorCount(), 0u);
}

TEST(SchemaPassTest, FullyUndeclaredChannelReportsNothing) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_TRUE(report.channels[0].resolved.is_unknown());
}

TEST(SchemaPassTest, GroupByFieldAbsentIsCWF7007) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0,
                                WindowSpec::Tuples(2, 2).GroupBy({"key"}));
  RecordSchema have;
  have.Int("time");
  src->out()->set_schema(TokenType::Record(have));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7007");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_NE(f->message.find("key"), std::string::npos);
}

TEST(SchemaPassTest, GroupByFieldPresentIsClean) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0,
                                WindowSpec::Tuples(2, 2).GroupBy({"key"}));
  RecordSchema have;
  have.Int("key").Int("time");
  src->out()->set_schema(TokenType::Record(have));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  EXPECT_TRUE(Analyze(wf).findings.empty());
}

TEST(SchemaPassTest, IdentityTransferInfersIntermediateChannel) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* throttle = wf.AddActor<ThrottleActor>("throttle", 1000);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), throttle->in()).ok());
  ASSERT_TRUE(wf.Connect(throttle->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty()) << report.ToText();
  ASSERT_EQ(report.channels.size(), 2u);
  // throttle.out was never declared but resolves through the identity
  // transfer function.
  const ChannelSchema& inferred = report.channels[1];
  EXPECT_EQ(inferred.resolved, TokenType::Int());
  EXPECT_FALSE(inferred.declared);
}

TEST(SchemaPassTest, MistypedSourceSurfacesThroughIdentityChain) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* throttle = wf.AddActor<ThrottleActor>("throttle", 1000);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Str());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), throttle->in()).ok());
  ASSERT_TRUE(wf.Connect(throttle->out(), sink->in()).ok());
  // The mismatch is attributed to the channel feeding the strict port, two
  // hops downstream of the bad declaration.
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7001");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("throttle.out"), std::string::npos) << f->message;
}

TEST(SchemaPassTest, FanInChecksEachChannelAgainstTheSharedPort) {
  Workflow wf("w");
  auto* ints = wf.AddActor<Node>("ints", 0, 1);
  auto* strs = wf.AddActor<Node>("strs", 0, 1);
  auto* merge = wf.AddActor<UnionActor>("merge");
  ints->out()->set_schema(TokenType::Int());
  strs->out()->set_schema(TokenType::Str());
  merge->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(ints->out(), merge->in()).ok());
  ASSERT_TRUE(wf.Connect(strs->out(), merge->in()).ok());
  const SchemaReport report = Analyze(wf);
  // Only the string channel violates the shared port's requirement.
  const SchemaFinding* f = FindCode(report, "CWF7001");
  ASSERT_NE(f, nullptr) << report.ToText();
  EXPECT_NE(f->message.find("strs.out"), std::string::npos);
  ASSERT_EQ(report.findings.size(), 1u);
}

TEST(SchemaPassTest, FanInJoinFlowsThroughUnionTransfer) {
  Workflow wf("w");
  auto* left = wf.AddActor<Node>("left", 0, 1);
  auto* right = wf.AddActor<Node>("right", 0, 1);
  auto* merge = wf.AddActor<UnionActor>("merge");
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  RecordSchema ls;
  ls.Int("key").Int("x");
  RecordSchema rs;
  rs.Int("key").Str("y");
  left->out()->set_schema(TokenType::Record(ls));
  right->out()->set_schema(TokenType::Record(rs));
  RecordSchema need;
  need.Int("key");
  sink->in()->set_required_schema(TokenType::Record(need));
  ASSERT_TRUE(wf.Connect(left->out(), merge->in()).ok());
  ASSERT_TRUE(wf.Connect(right->out(), merge->in()).ok());
  ASSERT_TRUE(wf.Connect(merge->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty()) << report.ToText();
  // The union's output layout is the join: common "key" required, the
  // one-sided fields demoted to optional.
  const ChannelSchema& joined = report.channels.back();
  ASSERT_NE(joined.resolved.record_schema(), nullptr);
  const RecordSchema& layout = *joined.resolved.record_schema();
  ASSERT_NE(layout.Find("key"), nullptr);
  EXPECT_TRUE(layout.Find("key")->required);
  ASSERT_NE(layout.Find("x"), nullptr);
  EXPECT_FALSE(layout.Find("x")->required);
  ASSERT_NE(layout.Find("y"), nullptr);
  EXPECT_FALSE(layout.Find("y")->required);
}

TEST(SchemaPassTest, ExposeInputInheritsInnerRequirementAtTheBoundary) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* composite = wf.AddActor<CompositeActor>(
      "comp", std::make_unique<DDFDirector>());
  auto* inner = composite->inner()->AddActor<Node>("inner", 1, 0);
  inner->in()->set_required_schema(TokenType::Str());
  InputPort* boundary = composite->ExposeInput("in", inner->in());
  src->out()->set_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), boundary).ok());
  // The outer channel is checked against the requirement declared inside
  // the composite — no separate boundary declaration needed.
  const SchemaReport report = Analyze(wf);
  const SchemaFinding* f = FindCode(report, "CWF7001");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("comp.in"), std::string::npos);
}

TEST(SchemaPassTest, ExposeOutputPropagatesInnerDeclarationOutward) {
  Workflow wf("w");
  auto* composite = wf.AddActor<CompositeActor>(
      "comp", std::make_unique<DDFDirector>());
  auto* inner = composite->inner()->AddActor<Node>("inner", 0, 1);
  inner->out()->set_schema(TokenType::Record(TimedSpeed()));
  OutputPort* boundary = composite->ExposeOutput("out", inner->out());
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  sink->in()->set_required_schema(TokenType::Record(TimedSpeed()));
  ASSERT_TRUE(wf.Connect(boundary, sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty()) << report.ToText();
  ASSERT_EQ(report.channels.size(), 1u);
  ASSERT_NE(report.channels[0].resolved.record_schema(), nullptr);
  EXPECT_NE(report.channels[0].resolved.record_schema()->Find("speed"),
            nullptr);
}

TEST(SchemaPassTest, TypeFlowsThroughCompositeToInnerConsumer) {
  // Outer declaration -> composite boundary -> inner identity -> exposed
  // output: the resolved type crosses both boundary directions.
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* composite = wf.AddActor<CompositeActor>(
      "comp", std::make_unique<DDFDirector>());
  auto* pass = composite->inner()->AddActor<ThrottleActor>("pass", 100);
  InputPort* bin = composite->ExposeInput("in", pass->in());
  OutputPort* bout = composite->ExposeOutput("out", pass->out());
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Double());
  sink->in()->set_required_schema(TokenType::Double());
  ASSERT_TRUE(wf.Connect(src->out(), bin).ok());
  ASSERT_TRUE(wf.Connect(bout, sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  EXPECT_TRUE(report.findings.empty()) << report.ToText();
  EXPECT_EQ(report.channels.back().resolved, TokenType::Double());
}

TEST(SchemaPassTest, PassFoldsFindingsIntoDiagnosticBag) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Str());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  DiagnosticBag diags;
  SchemaPass().Run(wf, AnalysisOptions{}, &diags);
  EXPECT_TRUE(diags.HasCode("CWF7001"));
  EXPECT_EQ(diags.ErrorCount(), 1u);
}

TEST(SchemaPassTest, ReportSerializesToTextAndJson) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* sink = wf.AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(TokenType::Record(TimedSpeed()));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  const SchemaReport report = Analyze(wf);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("src.out"), std::string::npos);
  EXPECT_NE(text.find("speed"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"channels\""), std::string::npos);
  EXPECT_NE(json.find("\"type\""), std::string::npos);
}

}  // namespace
}  // namespace cwf::analysis

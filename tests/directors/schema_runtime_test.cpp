// The analysis->runtime schema edge, both directions: Director::Initialize
// refuses statically mistyped graphs with an attributed CWF70xx error, and
// debug builds (CWF_SCHEMA_CHECK) catch producers that lie about their
// declared schema at deposit time with a CWF7008 abort naming the channel.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "actors/library.h"
#include "core/schema.h"
#include "directors/ddf_director.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

TEST(SchemaRuntimeTest, InitializeRefusesMistypedGraphNamingTheChannel) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  src->out()->set_schema(TokenType::Str());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  const Status status = d.Initialize(&wf, &clock, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CWF7001"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("src.out"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("sink.in"), std::string::npos)
      << status.message();
}

TEST(SchemaRuntimeTest, InitializeRefusesMissingFieldNamingIt) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  RecordSchema have;
  have.Int("time");
  src->out()->set_schema(TokenType::Record(have));
  RecordSchema need;
  need.Int("time").Double("speed");
  sink->in()->set_required_schema(TokenType::Record(need));
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  const Status status = d.Initialize(&wf, &clock, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CWF7003"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("speed"), std::string::npos)
      << status.message();
}

TEST(SchemaRuntimeTest, TypedGraphRunsCleanlyWithEnforcementAttached) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* dbl = wf.AddActor<MapActor>(
      "dbl", [](const Token& t) { return Token(t.AsInt() * 2); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  src->out()->set_schema(TokenType::Int());
  dbl->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), dbl->in()).ok());
  ASSERT_TRUE(wf.Connect(dbl->out(), sink->in()).ok());
  for (int i = 1; i <= 5; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 5u);
}

TEST(SchemaRuntimeTest, InitializeInstallsResolvedTypeElseTheRequirement) {
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* mid = wf.AddActor<MapActor>("mid", [](const Token& t) { return t; });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  src->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Double());
  ASSERT_TRUE(wf.Connect(src->out(), mid->in()).ok());
  ASSERT_TRUE(wf.Connect(mid->out(), sink->in()).ok());
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  const Receiver* first = mid->in()->receiver(0);
  ASSERT_NE(first->expected_type(), nullptr);
  EXPECT_EQ(*first->expected_type(), TokenType::Int());
  EXPECT_EQ(first->channel_name(), "src.out -> mid.in[0]");
  // mid's output is undeclared (no transfer function), so the consumer's
  // own requirement backs the runtime check.
  const Receiver* second = sink->in()->receiver(0);
  ASSERT_NE(second->expected_type(), nullptr);
  EXPECT_EQ(*second->expected_type(), TokenType::Double());
  EXPECT_EQ(second->channel_name(), "mid.out -> sink.in[0]");

  // Without the gate there is no resolution and nothing is enforced.
  DDFDirector unguarded;
  unguarded.set_static_analysis_enabled(false);
  ASSERT_TRUE(unguarded.Initialize(&wf, &clock, nullptr).ok());
  EXPECT_EQ(mid->in()->receiver(0)->expected_type(), nullptr);
  EXPECT_EQ(sink->in()->receiver(0)->expected_type(), nullptr);
}

#if CWF_SCHEMA_CHECK_IS_ON

TEST(SchemaRuntimeTest, LyingProducerFailsRunWithCWF7008AtTheReceiver) {
  // The producer passes static analysis (declared int) but emits strings:
  // exactly the class of bug the deposit check turns from a CHECK-fail deep
  // inside the consumer into an attributed channel error.
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* lie = wf.AddActor<MapActor>(
      "lie", [](const Token&) { return Token("oops"); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  src->out()->set_schema(TokenType::Int());
  lie->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), lie->in()).ok());
  ASSERT_TRUE(wf.Connect(lie->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(1));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  const Status run = d.Run(Timestamp::Max());
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.message().find("CWF7008"), std::string::npos)
      << run.message();
  EXPECT_NE(run.message().find("lie.out"), std::string::npos)
      << run.message();
}

TEST(SchemaRuntimeDeathTest, MistypedExternalTupleAbortsAtIngestion) {
  // The push channel inherits the source's declared schema at Initialize,
  // so a malformed external tuple dies at the workflow boundary instead of
  // inside whatever actor first reads the payload.
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  src->out()->set_schema(TokenType::Int());
  sink->in()->set_required_schema(TokenType::Int());
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  EXPECT_DEATH(feed->Push(Token("oops"), Timestamp::Seconds(1)),
               "CWF7008.*src\\.out");
}

#endif  // CWF_SCHEMA_CHECK_IS_ON

}  // namespace
}  // namespace cwf

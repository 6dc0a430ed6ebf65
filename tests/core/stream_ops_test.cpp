#include <gtest/gtest.h>

#include "actors/library.h"
#include "actors/stream_ops.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "directors/scwf_director.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"
#include "test_util.h"

namespace cwf {
namespace {

using testutil::Rec;

Token Order(int64_t id, double amount) {
  return Rec({{"id", Value(id)}, {"amount", Value(amount)}});
}

Token Shipment(int64_t id, const char* depot) {
  return Rec({{"id", Value(id)}, {"depot", Value(depot)}});
}

struct JoinRig {
  Workflow wf{"join"};
  std::shared_ptr<PushChannel> orders = std::make_shared<PushChannel>();
  std::shared_ptr<PushChannel> shipments = std::make_shared<PushChannel>();
  KeyedJoinActor* join;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  explicit JoinRig(size_t buffer = 16) {
    auto* so = wf.AddActor<StreamSourceActor>("orders", orders);
    auto* ss = wf.AddActor<StreamSourceActor>("shipments", shipments);
    join = wf.AddActor<KeyedJoinActor>("join",
                                       std::vector<std::string>{"id"}, buffer);
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(so->out(), join->left()).ok());
    CWF_CHECK(wf.Connect(ss->out(), join->right()).ok());
    CWF_CHECK(wf.Connect(join->out(), sink->in()).ok());
  }

  Status Run() {
    orders->Close();
    shipments->Close();
    SCWFDirector d(std::make_unique<FIFOScheduler>());
    CWF_RETURN_NOT_OK(d.Initialize(&wf, &clock, &cm));
    return d.Run(Timestamp::Max());
  }
};

TEST(KeyedJoinTest, MatchesAcrossSides) {
  JoinRig rig;
  rig.orders->Push(Order(1, 10.0), Timestamp::Seconds(1));
  rig.shipments->Push(Shipment(1, "east"), Timestamp::Seconds(2));
  rig.orders->Push(Order(2, 20.0), Timestamp::Seconds(3));
  rig.shipments->Push(Shipment(3, "west"), Timestamp::Seconds(4));
  ASSERT_TRUE(rig.Run().ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.Field("id").AsInt(), 1);
  EXPECT_DOUBLE_EQ(got[0].token.Field("amount").AsDouble(), 10.0);
  EXPECT_EQ(got[0].token.Field("depot").AsString(), "east");
  EXPECT_EQ(rig.join->matches(), 1u);
}

TEST(KeyedJoinTest, OrderOfArrivalIrrelevant) {
  JoinRig rig;
  rig.shipments->Push(Shipment(7, "north"), Timestamp::Seconds(1));
  rig.orders->Push(Order(7, 70.0), Timestamp::Seconds(2));
  ASSERT_TRUE(rig.Run().ok());
  EXPECT_EQ(rig.sink->count(), 1u);
}

TEST(KeyedJoinTest, ManyToManyEmitsCrossProduct) {
  JoinRig rig;
  rig.orders->Push(Order(5, 1.0), Timestamp::Seconds(1));
  rig.orders->Push(Order(5, 2.0), Timestamp::Seconds(2));
  rig.shipments->Push(Shipment(5, "a"), Timestamp::Seconds(3));
  rig.shipments->Push(Shipment(5, "b"), Timestamp::Seconds(4));
  ASSERT_TRUE(rig.Run().ok());
  EXPECT_EQ(rig.sink->count(), 4u);  // 2x2
}

TEST(KeyedJoinTest, BufferBoundEvictsOldest) {
  JoinRig rig(/*buffer=*/1);
  rig.orders->Push(Order(9, 1.0), Timestamp::Seconds(1));
  rig.orders->Push(Order(9, 2.0), Timestamp::Seconds(2));  // evicts 1.0
  rig.shipments->Push(Shipment(9, "x"), Timestamp::Seconds(3));
  ASSERT_TRUE(rig.Run().ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].token.Field("amount").AsDouble(), 2.0);
}

TEST(KeyedJoinTest, LeftFieldsWinNameClashes) {
  JoinRig rig;
  rig.orders->Push(Rec({{"id", 1}, {"v", 100}}), Timestamp::Seconds(1));
  rig.shipments->Push(Rec({{"id", 1}, {"v", 200}}), Timestamp::Seconds(2));
  ASSERT_TRUE(rig.Run().ok());
  auto got = rig.sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].token.Field("v").AsInt(), 100);
}

TEST(KeyedJoinTest, NonRecordTokenFailsTheRun) {
  JoinRig rig;
  rig.orders->Push(Token(5), Timestamp::Seconds(1));
  EXPECT_FALSE(rig.Run().ok());
}

TEST(UnionTest, MergesChannelsPreservingPerChannelOrder) {
  Workflow wf("u");
  auto f1 = std::make_shared<PushChannel>();
  auto f2 = std::make_shared<PushChannel>();
  auto* s1 = wf.AddActor<StreamSourceActor>("s1", f1);
  auto* s2 = wf.AddActor<StreamSourceActor>("s2", f2);
  auto* u = wf.AddActor<UnionActor>("union");
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(s1->out(), u->in()).ok());
  ASSERT_TRUE(wf.Connect(s2->out(), u->in()).ok());
  ASSERT_TRUE(wf.Connect(u->out(), sink->in()).ok());
  for (int i = 0; i < 3; ++i) {
    f1->Push(Token(i), Timestamp::Seconds(i));
    f2->Push(Token(100 + i), Timestamp::Seconds(i));
  }
  f1->Close();
  f2->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 6u);
  std::vector<int64_t> low, high;
  for (const auto& r : got) {
    (r.token.AsInt() < 100 ? low : high).push_back(r.token.AsInt());
  }
  EXPECT_EQ(low, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(high, (std::vector<int64_t>{100, 101, 102}));
}

TEST(ThrottleTest, CapsPerSecondAndCountsDrops) {
  Workflow wf("t");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* throttle = wf.AddActor<ThrottleActor>("throttle", 2);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), throttle->in()).ok());
  ASSERT_TRUE(wf.Connect(throttle->out(), sink->in()).ok());
  // 5 events in second 0, 1 event in second 3.
  for (int i = 0; i < 5; ++i) {
    feed->Push(Token(i), Timestamp::Millis(i));
  }
  feed->Push(Token(99), Timestamp::Seconds(3));
  feed->Close();
  VirtualClock clock;
  CostModel cm;  // default costs keep all 5 within virtual second 0
  cm.SetDefault({10, 1, 1});
  cm.scheduled_dispatch_overhead = 1;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 3u);  // 2 from the burst + the later one
  EXPECT_EQ(throttle->dropped(), 3u);
}

TEST(CounterSourceTest, EmitsExactlyCountTokens) {
  Workflow wf("c");
  auto* src = wf.AddActor<CounterSource>("src", 7, 3);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[6].token.AsInt(), 6);
}

struct StoreRig {
  db::Database database;
  db::Table* table;

  StoreRig() {
    table = database
                .CreateTable("kv", db::Schema({{"k", db::ColumnType::kInt64},
                                               {"label", db::ColumnType::kString}}))
                .value();
    CWF_CHECK(table->CreateIndex("pk", {"k"}, true).ok());
  }
};

TEST(DbUpsertActorTest, WritesAndDedupsByKey) {
  StoreRig store;
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* up = wf.AddActor<DbUpsertActor>("up", &store.database, "kv",
                                        std::vector<std::string>{"k"});
  ASSERT_TRUE(wf.Connect(src->out(), up->in()).ok());
  feed->Push(Rec({{"k", 1}, {"label", "a"}}), Timestamp::Seconds(1));
  feed->Push(Rec({{"k", 1}, {"label", "b"}}), Timestamp::Seconds(2));
  feed->Push(Rec({{"k", 2}, {"label", "c"}}), Timestamp::Seconds(3));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(up->rows_written(), 3u);
  EXPECT_EQ(store.table->RowCount(), 2u);
  auto row = store.table->SelectOne(db::Eq("k", Value(1))).value();
  EXPECT_EQ((*row)[1].AsString(), "b");  // refreshed
}

TEST(DbUpsertActorTest, MissingFieldsStoreNull) {
  StoreRig store;
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* up = wf.AddActor<DbUpsertActor>("up", &store.database, "kv",
                                        std::vector<std::string>{"k"});
  ASSERT_TRUE(wf.Connect(src->out(), up->in()).ok());
  feed->Push(Rec({{"k", 5}}), Timestamp::Seconds(1));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto row = store.table->SelectOne(db::Eq("k", Value(5))).value();
  ASSERT_TRUE(row.has_value());
  EXPECT_TRUE((*row)[1].is_null());
}

TEST(DbLookupActorTest, EnrichesMatchedPassesUnmatched) {
  StoreRig store;
  ASSERT_TRUE(store.table->Insert({Value(1), Value("gold")}).ok());
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* lk = wf.AddActor<DbLookupActor>("lk", &store.database, "kv",
                                        std::vector<std::string>{"k"});
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), lk->in()).ok());
  ASSERT_TRUE(wf.Connect(lk->out(), sink->in()).ok());
  feed->Push(Rec({{"k", 1}, {"x", 10}}), Timestamp::Seconds(1));
  feed->Push(Rec({{"k", 2}, {"x", 20}}), Timestamp::Seconds(2));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].token.Field("label").AsString(), "gold");
  EXPECT_EQ(got[0].token.Field("x").AsInt(), 10);
  EXPECT_FALSE(got[1].token.AsRecord()->Has("label"));
  EXPECT_EQ(lk->hits(), 1u);
}

TEST(DbLookupActorTest, DeclaredTypeAdmitsAColumnOverwritingAField) {
  // The record's int "label" clashes with the table's string column: a
  // match overwrites it with the column's string, an unmatched record keeps
  // its int, and the statically resolved output type must admit both.
  StoreRig store;
  ASSERT_TRUE(store.table->Insert({Value(1), Value("gold")}).ok());
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* lk = wf.AddActor<DbLookupActor>("lk", &store.database, "kv",
                                        std::vector<std::string>{"k"});
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), lk->in()).ok());
  ASSERT_TRUE(wf.Connect(lk->out(), sink->in()).ok());
  const TokenType declared = lk->OutputTokenType(
      lk->out(), {TokenType::Record(RecordSchema().Int("k").Int("label"))});
  feed->Push(Rec({{"k", 1}, {"label", 7}}), Timestamp::Seconds(1));
  feed->Push(Rec({{"k", 2}, {"label", 8}}), Timestamp::Seconds(2));
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].token.Field("label").AsString(), "gold");
  EXPECT_EQ(got[1].token.Field("label").AsInt(), 8);
  for (const auto& event : got) {
    EXPECT_TRUE(declared.CheckToken(event.token).ok())
        << declared.ToString() << " rejects " << event.token.ToString();
  }
}

TEST(DbActorsTest, UnknownTableFailsInitialize) {
  db::Database database;
  Workflow wf("w");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* up = wf.AddActor<DbUpsertActor>("up", &database, "nope",
                                        std::vector<std::string>{"k"});
  ASSERT_TRUE(wf.Connect(src->out(), up->in()).ok());
  VirtualClock clock;
  DDFDirector d;
  EXPECT_EQ(d.Initialize(&wf, &clock, nullptr).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

TEST(DelayActorTest, HoldsEventsForTheConfiguredLatency) {
  Workflow wf("link");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* link = wf.AddActor<DelayActor>("wan_link", Seconds(2));
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), link->in()).ok());
  ASSERT_TRUE(wf.Connect(link->out(), sink->in()).ok());
  feed->Push(Token(1), Timestamp::Seconds(1));
  feed->Push(Token(2), Timestamp::Seconds(1.5));
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, &cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(60)).ok());
  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 2u);
  // Each tuple waited at least the link latency after its arrival.
  for (const auto& r : got) {
    EXPECT_GE(r.completed_at - r.event_timestamp, Seconds(2));
    EXPECT_LT(r.completed_at - r.event_timestamp, Seconds(3));
  }
  EXPECT_EQ(link->in_flight(), 0u);
}

TEST(DelayActorTest, ReleasesWithoutFurtherInputUnderDdf) {
  Workflow wf("link");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* link = wf.AddActor<DelayActor>("link", Seconds(5));
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), link->in()).ok());
  ASSERT_TRUE(wf.Connect(link->out(), sink->in()).ok());
  feed->Push(Token(9), Timestamp::Seconds(1));
  feed->Close();  // nothing else will ever arrive
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Seconds(30)).ok());
  // The deadline mechanism must have woken the link to flush its buffer.
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_GE(clock.Now(), Timestamp::Seconds(6));
}

TEST(DelayActorTest, ZeroDelayIsPassThrough) {
  Workflow wf("link");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* link = wf.AddActor<DelayActor>("link", 0);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), link->in()).ok());
  ASSERT_TRUE(wf.Connect(link->out(), sink->in()).ok());
  for (int i = 0; i < 5; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();
  VirtualClock clock;
  DDFDirector d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(sink->count(), 5u);
}

}  // namespace
}  // namespace cwf

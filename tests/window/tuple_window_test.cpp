#include <gtest/gtest.h>

#include <cmath>

#include "stream/trace.h"
#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;
using testutil::Ints;
using testutil::Rec;

std::vector<Window> PutAll(WindowOperator* op, std::vector<int64_t> values) {
  std::vector<Window> out;
  int64_t ts = 0;
  for (int64_t v : values) {
    EXPECT_TRUE(op->Put(Ev(Token(v), ++ts), &out).ok());
  }
  return out;
}

TEST(TupleWindowTest, SlidingSize4Step1) {
  WindowOperator op(WindowSpec::Tuples(4, 1));
  auto windows = PutAll(&op, {1, 2, 3, 4, 5, 6});
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(Ints(windows[0]), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(Ints(windows[1]), (std::vector<int64_t>{2, 3, 4, 5}));
  EXPECT_EQ(Ints(windows[2]), (std::vector<int64_t>{3, 4, 5, 6}));
}

TEST(TupleWindowTest, TumblingSizeEqualsStep) {
  WindowOperator op(WindowSpec::Tuples(3, 3));
  auto windows = PutAll(&op, {1, 2, 3, 4, 5, 6, 7});
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(Ints(windows[0]), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Ints(windows[1]), (std::vector<int64_t>{4, 5, 6}));
  EXPECT_EQ(op.PendingEventCount(), 1u);
}

TEST(TupleWindowTest, SamplingStepGreaterThanSize) {
  // Windows of 2 every 3 events: the event between windows is skipped
  // (expires without ever joining a window).
  WindowOperator op(WindowSpec::Tuples(2, 3));
  auto windows = PutAll(&op, {1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(Ints(windows[0]), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(Ints(windows[1]), (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(Ints(windows[2]), (std::vector<int64_t>{7, 8}));
  // Skipped events 3 and 6 expired unused; every other event expired when
  // its window slid on.
  EXPECT_EQ(op.expired_count(), 8u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

TEST(TupleWindowTest, DeleteUsedEventsConsumesWholeWindow) {
  WindowOperator op(WindowSpec::Tuples(4, 1).DeleteUsedEvents(true));
  auto windows = PutAll(&op, {1, 2, 3, 4, 5, 6, 7, 8});
  // Consumption semantics: each window uses up its 4 events.
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(Ints(windows[0]), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(Ints(windows[1]), (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST(TupleWindowTest, ExpiredEventsSlideOut) {
  WindowOperator op(WindowSpec::Tuples(2, 1));
  PutAll(&op, {1, 2, 3});
  EXPECT_EQ(op.expired_count(), 2u);  // 1 and 2 slid out of scope
  EXPECT_EQ(op.PendingEventCount(), 1u);
  PutAll(&op, {4});
  EXPECT_EQ(op.expired_count(), 3u);  // a lifetime count: 3 joins 1 and 2
}

TEST(TupleWindowTest, NoExpiredUnderConsumptionMode) {
  WindowOperator op(WindowSpec::Tuples(2, 1).DeleteUsedEvents(true));
  PutAll(&op, {1, 2, 3, 4});
  EXPECT_EQ(op.expired_count(), 0u);
}

TEST(TupleWindowTest, GroupByPartitionsStream) {
  WindowOperator op(WindowSpec::Tuples(2, 1).GroupBy({"car"}));
  std::vector<Window> out;
  int64_t ts = 0;
  for (int64_t car : {1, 2, 1, 2, 1}) {
    ++ts;
    ASSERT_TRUE(
        op.Put(Ev(Rec({{"car", Value(car)}, {"n", Value(ts)}}), ts), &out)
            .ok());
  }
  // car 1 gets windows (n1,n3) and (n3,n5); car 2 gets (n2,n4). Production
  // order follows the closing events: n3 (car 1), n4 (car 2), n5 (car 1).
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(op.GroupCount(), 2u);
  EXPECT_EQ(out[0].group_key.Field("car").AsInt(), 1);
  EXPECT_EQ(out[1].group_key.Field("car").AsInt(), 2);
  EXPECT_EQ(out[2].group_key.Field("car").AsInt(), 1);
}

TEST(TupleWindowTest, GroupKeyTokenCarriesAllFields) {
  WindowOperator op(WindowSpec::Tuples(1, 1).GroupBy({"xway", "seg"}));
  std::vector<Window> out;
  ASSERT_TRUE(
      op.Put(Ev(Rec({{"xway", 1}, {"seg", 33}, {"v", 9}}), 1), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].group_key.Field("xway").AsInt(), 1);
  EXPECT_EQ(out[0].group_key.Field("seg").AsInt(), 33);
  EXPECT_FALSE(out[0].group_key.AsRecord()->Has("v"));
}

TEST(TupleWindowTest, GroupByRejectsNonRecordTokens) {
  WindowOperator op(WindowSpec::Tuples(1, 1).GroupBy({"car"}));
  std::vector<Window> out;
  EXPECT_EQ(op.Put(Ev(Token(5), 1), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleWindowTest, GroupByRejectsMissingField) {
  WindowOperator op(WindowSpec::Tuples(1, 1).GroupBy({"car"}));
  std::vector<Window> out;
  EXPECT_FALSE(op.Put(Ev(Rec({{"other", 1}}), 1), &out).ok());
}

TEST(TupleWindowTest, NaNGroupKeyFormsOneGroup) {
  // The wire format accepts a NaN double; group keys compare NaN equal to
  // NaN, so every such event lands in the one group.
  WindowOperator op(WindowSpec::Tuples(2, 2).GroupBy({"k"}));
  std::vector<Window> out;
  for (int64_t ts = 1; ts <= 4; ++ts) {
    Result<Token> token = ParseTokenBody("k=d:nan;n=i:1");
    ASSERT_TRUE(token.ok()) << token.status().ToString();
    ASSERT_TRUE(op.Put(Ev(std::move(token).value(), ts), &out).ok());
  }
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(op.GroupCount(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::isnan(out[0].group_key.Field("k").AsDouble()));
}

TEST(TupleWindowTest, FlushEmitsPartialWindows) {
  WindowOperator op(WindowSpec::Tuples(4, 4));
  PutAll(&op, {1, 2});
  std::vector<Window> out;
  op.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

TEST(TupleWindowTest, WindowsProducedCounter) {
  WindowOperator op(WindowSpec::Tuples(2, 2));
  PutAll(&op, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(op.windows_produced(), 3u);
}

TEST(TupleWindowTest, NoDeadlinesForTupleWindows) {
  WindowOperator op(WindowSpec::Tuples(2, 1));
  PutAll(&op, {1});
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
  std::vector<Window> out;
  op.OnTimeout(Timestamp::Max(), &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace cwf

#include <gtest/gtest.h>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;
using testutil::Ints;
using testutil::Rec;

TEST(TimeWindowTest, TumblingMinuteClosedByLaterEvent) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(50)), &out).ok());
  EXPECT_TRUE(out.empty());
  // An event of the next minute closes [0, 60).
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(65)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1, 2}));
  EXPECT_FALSE(out[0].closed_by_timeout);
}

TEST(TimeWindowTest, EpochAlignment) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  // First event at t=70 => window [60, 120), not [70, 130).
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(70)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(119)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(120)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1, 2}));
}

TEST(TimeWindowTest, TimeoutClosesWindow) {
  WindowOperator op(
      WindowSpec::Time(Seconds(60), Seconds(60)).FormationTimeout(Seconds(5)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  EXPECT_EQ(op.NextDeadline(), Timestamp::Seconds(65));
  op.OnTimeout(Timestamp::Seconds(64), &out);
  EXPECT_TRUE(out.empty());  // not due yet
  op.OnTimeout(Timestamp::Seconds(65), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].closed_by_timeout);
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
}

TEST(TimeWindowTest, ZeroTimeoutFiresAtBoundary) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(30)), &out).ok());
  EXPECT_EQ(op.NextDeadline(), Timestamp::Seconds(60));
}

TEST(TimeWindowTest, NegativeTimeoutDisablesDeadlines) {
  WindowOperator op(
      WindowSpec::Time(Seconds(60), Seconds(60)).FormationTimeout(-1));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(30)), &out).ok());
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
}

TEST(TimeWindowTest, GapFastForwardsWithoutEmptyWindows) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  // Jump three minutes ahead: closes [0,60) and realigns to [180,240).
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(200)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1}));
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(240)), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(Ints(out[1]), (std::vector<int64_t>{2}));
}

TEST(TimeWindowTest, SlidingTimeWindowRetainsOverlap) {
  // 60s window sliding every 30s, no consumption.
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(30)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(40)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(70)), &out).ok());  // closes [0,60)
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1, 2}));
  // Window is now [30, 90): event 1 (t=10) expired, events 2 and 3 retained.
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 2u);
  ASSERT_TRUE(op.Put(Ev(Token(4), Seconds(95)), &out).ok());  // closes [30,90)
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(Ints(out[1]), (std::vector<int64_t>{2, 3}));
}

TEST(TimeWindowTest, DeleteUsedEventsClearsQueueOnClose) {
  WindowOperator op(
      WindowSpec::Time(Seconds(60), Seconds(30)).DeleteUsedEvents(true));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(40)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(70)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // Consumption: both events used; only event 3 remains pending.
  EXPECT_EQ(op.PendingEventCount(), 1u);
}

TEST(TimeWindowTest, StragglerGoesToExpired) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(70)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(10)), &out).ok());  // late
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 1u);  // only event 1 is buffered
}

TEST(TimeWindowTest, PerGroupWindowsCloseIndependently) {
  WindowOperator op(
      WindowSpec::Time(Seconds(60), Seconds(60)).GroupBy({"seg"}));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Rec({{"seg", 1}, {"v", 10}}), Seconds(10)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Rec({{"seg", 2}, {"v", 20}}), Seconds(20)), &out).ok());
  // Close only seg 1's window.
  ASSERT_TRUE(op.Put(Ev(Rec({{"seg", 1}, {"v", 11}}), Seconds(61)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].group_key.Field("seg").AsInt(), 1);
  // Seg 2's deadline still pending.
  EXPECT_EQ(op.NextDeadline(), Timestamp::Seconds(60));
  op.OnTimeout(Timestamp::Seconds(60), &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].group_key.Field("seg").AsInt(), 2);
}

TEST(TimeWindowTest, DeadlineIndexTracksManyGroups) {
  WindowOperator op(
      WindowSpec::Time(Seconds(60), Seconds(60)).GroupBy({"car"}));
  std::vector<Window> out;
  for (int64_t car = 0; car < 100; ++car) {
    ASSERT_TRUE(
        op.Put(Ev(Rec({{"car", Value(car)}}), Seconds(10)), &out).ok());
  }
  EXPECT_EQ(op.NextDeadline(), Timestamp::Seconds(60));
  op.OnTimeout(Timestamp::Seconds(60), &out);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
}

TEST(TimeWindowTest, TimeoutProducesConsecutiveWindowsAfterLongSilence) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(10)), &out).ok());
  // Fire the timeout far in the future: one window; start advances past the
  // emptied queue and the deadline disappears.
  op.OnTimeout(Timestamp::Seconds(500), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
}

}  // namespace
}  // namespace cwf

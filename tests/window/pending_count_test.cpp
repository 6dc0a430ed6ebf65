// PendingEventCount() is a running counter; every path that buffers or
// releases events must keep it equal to what is actually held. One case per
// mutation path of WindowOperator.

#include <gtest/gtest.h>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;

CWEvent KeyedEv(int64_t key, int64_t ts_us) {
  return Ev(testutil::Rec({{"k", Value(key)}}), ts_us);
}

CWEvent WaveEv(WaveTag tag, bool last, int64_t ts_us) {
  CWEvent e;
  e.token = Token(ts_us);
  e.timestamp = Timestamp(ts_us);
  e.wave = std::move(tag);
  e.last_in_wave = last;
  return e;
}

TEST(PendingCountTest, TupleSlideKeepsTheWindowTail) {
  WindowOperator op(WindowSpec::Tuples(3, 1));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), 1), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), 2), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 2u);
  // Completes [1,2,3], slides by one: event 1 expires.
  ASSERT_TRUE(op.Put(Ev(Token(3), 3), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 2u);
  EXPECT_EQ(op.expired_count(), 1u);
  ASSERT_TRUE(op.Put(Ev(Token(4), 4), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 2u);
}

TEST(PendingCountTest, TupleConsumeReleasesTheWholeWindow) {
  WindowOperator op(WindowSpec::Tuples(3, 3).DeleteUsedEvents(true));
  std::vector<Window> out;
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(op.Put(Ev(Token(i), i), &out).ok());
  }
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
  ASSERT_TRUE(op.Put(Ev(Token(4), 4), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 1u);
}

TEST(PendingCountTest, TupleStepBeyondSizeSkipsWithoutBuffering) {
  WindowOperator op(WindowSpec::Tuples(2, 5));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), 1), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), 2), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
  // Events 3..5 fall in the gap between windows: expired, never buffered.
  for (int64_t i = 3; i <= 5; ++i) {
    ASSERT_TRUE(op.Put(Ev(Token(i), i), &out).ok());
    EXPECT_EQ(op.PendingEventCount(), 0u);
  }
  ASSERT_TRUE(op.Put(Ev(Token(6), 6), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(op.expired_count(), 5u);
}

TEST(PendingCountTest, TimeCloseByArrivalExpiresTheOldWindow) {
  WindowOperator op(WindowSpec::Time(Seconds(10), Seconds(10)).GroupBy({"k"}));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(KeyedEv(1, Seconds(1)), &out).ok());
  ASSERT_TRUE(op.Put(KeyedEv(1, Seconds(2)), &out).ok());
  ASSERT_TRUE(op.Put(KeyedEv(2, Seconds(3)), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 3u);
  // Key 1's next-window arrival closes [0,10) and expires both events.
  ASSERT_TRUE(op.Put(KeyedEv(1, Seconds(12)), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 2u);
}

TEST(PendingCountTest, TimeCloseByArrivalConsumes) {
  WindowOperator op(
      WindowSpec::Time(Seconds(10), Seconds(10)).DeleteUsedEvents(true));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(1)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(2)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(12)), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(op.expired_count(), 0u);
}

TEST(PendingCountTest, TimeStragglerIsNotBuffered) {
  WindowOperator op(WindowSpec::Time(Seconds(10), Seconds(10)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(1)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(12)), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 1u);
  // Behind the current window [10,20): expires on arrival.
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(5)), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(op.expired_count(), 2u);
}

TEST(PendingCountTest, TimeOnTimeoutReleasesClosedWindows) {
  WindowOperator op(WindowSpec::Time(Seconds(10), Seconds(10))
                        .GroupBy({"k"})
                        .FormationTimeout(Seconds(1)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(KeyedEv(1, Seconds(1)), &out).ok());
  ASSERT_TRUE(op.Put(KeyedEv(2, Seconds(2)), &out).ok());
  ASSERT_TRUE(op.Put(KeyedEv(2, Seconds(15)), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 2u);
  // Key 1's [0,10) deadline (11 s) has passed; key 2's [10,20) has not.
  op.OnTimeout(Timestamp::Seconds(11), &out);
  EXPECT_EQ(op.PendingEventCount(), 1u);
  op.OnTimeout(Timestamp::Seconds(21), &out);
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

TEST(PendingCountTest, TimeFlushEmptiesEveryGroup) {
  WindowOperator op(WindowSpec::Time(Seconds(10), Seconds(5)).GroupBy({"k"}));
  std::vector<Window> out;
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(op.Put(KeyedEv(i % 4, Seconds(i)), &out).ok());
  }
  EXPECT_GT(op.PendingEventCount(), 0u);
  op.Flush(&out);
  EXPECT_EQ(op.PendingEventCount(), 0u);
  ASSERT_TRUE(op.Put(KeyedEv(0, Seconds(100)), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 1u);
}

TEST(PendingCountTest, WaveDropExpiresTheOldestWave) {
  WindowOperator op(WindowSpec::Waves(2, 1));
  std::vector<Window> out;
  const WaveTag a = WaveTag::Root(1);
  const WaveTag b = WaveTag::Root(2);
  ASSERT_TRUE(op.Put(WaveEv(a.Child(1), false, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(a.Child(2), true, 2), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(b.Child(1), false, 3), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 3u);
  // Completes wave b: window {a, b}, then wave a slides out and expires.
  ASSERT_TRUE(op.Put(WaveEv(b.Child(2), true, 4), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 2u);
  EXPECT_EQ(op.expired_count(), 2u);
}

TEST(PendingCountTest, WaveDropConsumesTheWindow) {
  WindowOperator op(WindowSpec::Waves(2, 2).DeleteUsedEvents(true));
  std::vector<Window> out;
  const WaveTag a = WaveTag::Root(1);
  const WaveTag b = WaveTag::Root(2);
  const WaveTag c = WaveTag::Root(3);
  ASSERT_TRUE(op.Put(WaveEv(a.Child(1), true, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(c.Child(1), false, 2), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(b.Child(1), false, 3), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(b.Child(2), true, 4), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  // Waves a and b are used up; the incomplete wave c stays buffered.
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(op.expired_count(), 0u);
}

TEST(PendingCountTest, WaveFlushDropsCompleteAndIncompleteBuffers) {
  WindowOperator op(WindowSpec::Waves(3, 1).GroupBy({"k"}));
  std::vector<Window> out;
  CWEvent done = WaveEv(WaveTag::Root(1), true, 1);
  done.token = testutil::Rec({{"k", Value(1)}});
  CWEvent partial = WaveEv(WaveTag::Root(2).Child(1), false, 2);
  partial.token = testutil::Rec({{"k", Value(2)}});
  ASSERT_TRUE(op.Put(done, &out).ok());
  ASSERT_TRUE(op.Put(partial, &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 2u);
  op.Flush(&out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

}  // namespace
}  // namespace cwf

// Expired events are counted, not kept: once an event has slid out of
// every future window (and the windows that copied it are gone), nothing in
// the operator may still hold its record. One case per expiry path of
// WindowOperator; each keeps a second reference to one event's record and
// checks it is the only one left.

#include <gtest/gtest.h>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;

// An event carrying a fresh record; `*keep` receives a reference to it.
CWEvent Tracked(RecordPtr* keep, int64_t ts_us) {
  CWEvent e = Ev(testutil::Rec({{"v", Value(ts_us)}}), ts_us);
  *keep = e.token.AsRecord();
  return e;
}

TEST(ExpiryReleaseTest, TupleSlideReleasesTheRecord) {
  WindowOperator op(WindowSpec::Tuples(3, 1));
  std::vector<Window> out;
  RecordPtr keep;
  ASSERT_TRUE(op.Put(Tracked(&keep, 1), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), 2), &out).ok());
  // Completes [1,2,3] and slides by one: event 1 expires but stays in the
  // queue's storage, ahead of the live part.
  ASSERT_TRUE(op.Put(Ev(Token(3), 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 2u);
  EXPECT_EQ(keep.use_count(), 1);
}

TEST(ExpiryReleaseTest, StepBeyondSizeSkipReleasesTheRecord) {
  WindowOperator op(WindowSpec::Tuples(1, 3));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), 1), &out).ok());
  ASSERT_EQ(op.expired_count(), 1u);
  // Event 2 falls in the gap before the next window.
  RecordPtr keep;
  ASSERT_TRUE(op.Put(Tracked(&keep, 2), &out).ok());
  EXPECT_EQ(op.expired_count(), 2u);
  EXPECT_EQ(op.PendingEventCount(), 0u);
  EXPECT_EQ(keep.use_count(), 1);
}

TEST(ExpiryReleaseTest, TimeSlideReleasesTheRecord) {
  WindowOperator op(WindowSpec::Time(Seconds(30), Seconds(10)));
  std::vector<Window> out;
  RecordPtr keep;
  ASSERT_TRUE(op.Put(Tracked(&keep, Seconds(1)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(2), Seconds(11)), &out).ok());
  ASSERT_TRUE(op.Put(Ev(Token(3), Seconds(21)), &out).ok());
  // Closes [0,30) and slides to [10,40): the event at 1 s expires.
  ASSERT_TRUE(op.Put(Ev(Token(4), Seconds(31)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 3u);
  EXPECT_EQ(keep.use_count(), 1);
}

TEST(ExpiryReleaseTest, LateStragglerReleasesTheRecord) {
  WindowOperator op(WindowSpec::Time(Seconds(10), Seconds(10)));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(Ev(Token(1), Seconds(15)), &out).ok());
  // Behind the current window [10,20): expires on arrival.
  RecordPtr keep;
  ASSERT_TRUE(op.Put(Tracked(&keep, Seconds(5)), &out).ok());
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(keep.use_count(), 1);
}

TEST(ExpiryReleaseTest, WaveSlideReleasesTheRecord) {
  WindowOperator op(WindowSpec::Waves(2, 1));
  std::vector<Window> out;
  RecordPtr keep;
  // Ev() gives each event its own complete root wave.
  ASSERT_TRUE(op.Put(Tracked(&keep, 1), &out).ok());
  // Completes the second wave: window {1, 2}, then the first slides out.
  ASSERT_TRUE(op.Put(Ev(Token(2), 2), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  EXPECT_EQ(op.expired_count(), 1u);
  EXPECT_EQ(op.PendingEventCount(), 1u);
  EXPECT_EQ(keep.use_count(), 1);
}

}  // namespace
}  // namespace cwf

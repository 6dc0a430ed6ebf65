#include <gtest/gtest.h>

#include "core/port.h"
#include "test_util.h"
#include "window/tm_windowed_receiver.h"
#include "window/windowed_receiver.h"

namespace cwf {
namespace {

using testutil::Ev;
using testutil::Ints;

TEST(QueueReceiverTest, FifoSingleEventWindows) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  QueueReceiver r(&port);
  EXPECT_FALSE(r.HasWindow());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  EXPECT_EQ(r.ReadyWindowCount(), 2u);
  EXPECT_EQ(r.Get()->events[0].token.AsInt(), 1);
  EXPECT_EQ(r.Get()->events[0].token.AsInt(), 2);
  EXPECT_FALSE(r.Get().has_value());
  EXPECT_EQ(r.port(), &port);
}

TEST(WindowedReceiverTest, ProducesWindowsOnPut) {
  InputPort port(nullptr, "in", WindowSpec::Tuples(2, 1));
  WindowedReceiver r(&port, port.spec());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  EXPECT_FALSE(r.HasWindow());
  EXPECT_EQ(r.PendingEventCount(), 1u);
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  ASSERT_TRUE(r.HasWindow());
  EXPECT_EQ(Ints(*r.Get()), (std::vector<int64_t>{1, 2}));
}

TEST(WindowedReceiverTest, TrivialSpecBehavesLikeQueue) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, port.spec());
  ASSERT_TRUE(r.Put(Ev(Token(7), 1)).ok());
  ASSERT_TRUE(r.HasWindow());
  EXPECT_EQ(r.Get()->size(), 1u);
}

TEST(WindowedReceiverTest, TimeoutSurfacesThroughReceiver) {
  WindowSpec spec = WindowSpec::Time(Seconds(60), Seconds(60));
  InputPort port(nullptr, "in", spec);
  WindowedReceiver r(&port, spec);
  ASSERT_TRUE(r.Put(Ev(Token(1), Seconds(10))).ok());
  EXPECT_EQ(r.NextDeadline(), Timestamp::Seconds(60));
  r.OnTimeout(Timestamp::Seconds(60));
  ASSERT_TRUE(r.HasWindow());
  EXPECT_TRUE(r.Get()->closed_by_timeout);
}

TEST(WindowedReceiverTest, FlushDrainsPartials) {
  InputPort port(nullptr, "in", WindowSpec::Tuples(5, 5));
  WindowedReceiver r(&port, port.spec());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  r.Flush();
  ASSERT_TRUE(r.HasWindow());
  EXPECT_EQ(r.Get()->size(), 1u);
}

TEST(TMWindowedReceiverTest, ProducedWindowsGoToCallbackNotLocally) {
  InputPort port(nullptr, "in", WindowSpec::Tuples(2, 1));
  std::vector<Window> routed;
  TMWindowedReceiver r(&port, port.spec(),
                       [&](TMWindowedReceiver* self, Window w) {
                         EXPECT_EQ(self, &r);
                         routed.push_back(std::move(w));
                       });
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  ASSERT_EQ(routed.size(), 1u);
  // The receiver's own buffer stays empty until the director delivers.
  EXPECT_FALSE(r.HasWindow());
  EXPECT_EQ(r.ReadyWindowCount(), 0u);
}

TEST(TMWindowedReceiverTest, DeliverBufferedFeedsGet) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  std::vector<Window> routed;
  TMWindowedReceiver r(&port, port.spec(),
                       [&](TMWindowedReceiver*, Window w) {
                         routed.push_back(std::move(w));
                       });
  ASSERT_TRUE(r.Put(Ev(Token(5), 1)).ok());
  ASSERT_EQ(routed.size(), 1u);
  r.DeliverBuffered(std::move(routed[0]));
  ASSERT_TRUE(r.HasWindow());
  EXPECT_EQ(r.Get()->events[0].token.AsInt(), 5);
  EXPECT_FALSE(r.HasWindow());
}

TEST(TMWindowedReceiverTest, TimeoutWindowsAlsoRouted) {
  WindowSpec spec = WindowSpec::Time(Seconds(60), Seconds(60));
  InputPort port(nullptr, "in", spec);
  std::vector<Window> routed;
  TMWindowedReceiver r(&port, spec, [&](TMWindowedReceiver*, Window w) {
    routed.push_back(std::move(w));
  });
  ASSERT_TRUE(r.Put(Ev(Token(1), Seconds(5))).ok());
  r.OnTimeout(Timestamp::Seconds(60));
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_TRUE(routed[0].closed_by_timeout);
}

}  // namespace
}  // namespace cwf

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

TEST(PushChannelTest, PopArrivedRespectsTime) {
  PushChannel ch;
  ch.Push(Token(1), Timestamp::Seconds(1));
  ch.Push(Token(2), Timestamp::Seconds(2));
  ch.Push(Token(3), Timestamp::Seconds(3));
  EXPECT_EQ(ch.Pending(), 3u);
  EXPECT_EQ(ch.NextArrival(), Timestamp::Seconds(1));
  auto batch = ch.PopArrived(Timestamp::Seconds(2));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].token.AsInt(), 1);
  EXPECT_EQ(ch.NextArrival(), Timestamp::Seconds(3));
}

TEST(PushChannelTest, MaxBatchLimitsDrain) {
  PushChannel ch;
  for (int i = 0; i < 5; ++i) {
    ch.Push(Token(i), Timestamp(0));
  }
  EXPECT_EQ(ch.PopArrived(Timestamp::Seconds(1), 2).size(), 2u);
  EXPECT_EQ(ch.Pending(), 3u);
}

TEST(PushChannelTest, EmptyChannelSentinels) {
  PushChannel ch;
  EXPECT_EQ(ch.NextArrival(), Timestamp::Max());
  EXPECT_TRUE(ch.PopArrived(Timestamp::Max()).empty());
}

TEST(PushChannelTest, NextArrivalTracksFrontUnderConcurrentPushAndPop) {
  // NextArrival() reads a front arrival published under the lock. With one
  // producer appending increasing arrivals and one consumer popping, the
  // front the consumer observes is exactly what it pops next.
  constexpr int kTuples = 20000;
  PushChannel ch;
  std::thread producer([&ch] {
    for (int i = 1; i <= kTuples; ++i) {
      if (i % 3 == 0) {
        TraceEntry entry{Timestamp(i), Token(i)};
        ASSERT_EQ(ch.TryPushBatch(std::span<TraceEntry>(&entry, 1)), 1u);
      } else {
        ch.Push(Token(i), Timestamp(i));
      }
    }
  });
  int popped = 0;
  int64_t last = 0;
  while (popped < kTuples) {
    const Timestamp front = ch.NextArrival();
    if (front == Timestamp::Max()) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_GT(front.micros(), last);
    std::vector<TraceEntry> got = ch.PopArrived(front, 1);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].arrival, front);
    last = front.micros();
    ++popped;
  }
  producer.join();
  EXPECT_EQ(ch.NextArrival(), Timestamp::Max());
}

TEST(PushChannelTest, CloseSemantics) {
  PushChannel ch;
  EXPECT_FALSE(ch.closed());
  ch.Close();
  EXPECT_TRUE(ch.closed());
}

TEST(PushChannelDeathTest, PushAfterCloseAborts) {
  PushChannel ch;
  ch.Close();
  EXPECT_DEATH(ch.Push(Token(1), Timestamp(0)), "closed channel");
}

TEST(PushChannelTest, PushTraceBulkLoads) {
  Trace t;
  t.Add(Timestamp::Seconds(1), Token(1));
  t.Add(Timestamp::Seconds(2), Token(2));
  PushChannel ch;
  ch.PushTrace(t);
  EXPECT_EQ(ch.Pending(), 2u);
}

TEST(PushChannelTest, WaitForDataWakesOnPush) {
  PushChannel ch;
  std::thread producer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(Token(1), Timestamp(0));
  });
  ch.WaitForData();
  EXPECT_GE(ch.Pending(), 1u);
  producer.join();
}

TEST(PushChannelTest, WaitForDataWakesOnClose) {
  PushChannel ch;
  std::thread closer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Close();
  });
  ch.WaitForData();
  EXPECT_TRUE(ch.closed());
  closer.join();
}

TEST(PushChannelTest, TimedWaitForDataReportsTimeoutPushAndClose) {
  PushChannel ch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.WaitForData(std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  std::thread producer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(Token(1), Timestamp(0));
  });
  EXPECT_TRUE(ch.WaitForData(std::chrono::seconds(10)));
  EXPECT_EQ(ch.Pending(), 1u);
  producer.join();
  ch.PopArrived(Timestamp::Max());
  ch.Close();
  EXPECT_TRUE(ch.WaitForData(std::chrono::seconds(10)));
}

TEST(PushChannelTest, OfferRespectsCapacity) {
  PushChannel ch;
  ch.SetCapacity(2);
  EXPECT_EQ(ch.capacity(), 2u);
  EXPECT_EQ(ch.Offer(Token(1), Timestamp(0)), PushOutcome::kAccepted);
  EXPECT_EQ(ch.Offer(Token(2), Timestamp(0)), PushOutcome::kAccepted);
  EXPECT_EQ(ch.Offer(Token(3), Timestamp(0)), PushOutcome::kFull);
  EXPECT_EQ(ch.Pending(), 2u);
  ch.PopArrived(Timestamp::Max(), 1);
  EXPECT_EQ(ch.Offer(Token(3), Timestamp(0)), PushOutcome::kAccepted);
  ch.Close();
  EXPECT_EQ(ch.Offer(Token(4), Timestamp(0)), PushOutcome::kClosed);
}

TEST(PushChannelTest, UnboundedChannelNeverRefuses) {
  PushChannel ch;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ch.Offer(Token(i), Timestamp(0)), PushOutcome::kAccepted);
  }
  EXPECT_EQ(ch.Pending(), 1000u);
}

TEST(PushChannelTest, TryPushBatchStopsAtCapacity) {
  PushChannel ch;
  ch.SetCapacity(3);
  std::vector<TraceEntry> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back({Timestamp(i), Token(i)});
  }
  EXPECT_EQ(ch.TryPushBatch(entries), 3u);
  EXPECT_EQ(ch.Pending(), 3u);
  // Unaccepted entries keep their tokens (only accepted ones are moved).
  EXPECT_EQ(entries[3].token.AsInt(), 3);
  EXPECT_EQ(entries[4].token.AsInt(), 4);
  auto got = ch.PopArrived(Timestamp::Max());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].token.AsInt(), 0);
  EXPECT_EQ(got[2].token.AsInt(), 2);
}

TEST(PushChannelTest, TryPushBatchOnClosedChannelAcceptsNothing) {
  PushChannel ch;
  ch.Close();
  std::vector<TraceEntry> entries;
  entries.push_back({Timestamp(0), Token(1)});
  EXPECT_EQ(ch.TryPushBatch(entries), 0u);
  EXPECT_EQ(entries[0].token.AsInt(), 1);  // untouched
}

TEST(PushChannelTest, SpaceCallbackFiresAtHalfCapacityAfterRefusal) {
  PushChannel ch;
  ch.SetCapacity(4);
  int fired = 0;
  ch.SetSpaceAvailableCallback([&] { ++fired; });
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ch.Offer(Token(i), Timestamp(0)), PushOutcome::kAccepted);
  }
  // No refusal yet: draining must not signal.
  ch.PopArrived(Timestamp::Max(), 1);
  EXPECT_EQ(fired, 0);
  ASSERT_EQ(ch.Offer(Token(9), Timestamp(0)), PushOutcome::kAccepted);
  ASSERT_EQ(ch.Offer(Token(10), Timestamp(0)), PushOutcome::kFull);
  // Hysteresis: one pop leaves 3 > capacity/2 pending — still quiet.
  ch.PopArrived(Timestamp::Max(), 1);
  EXPECT_EQ(fired, 0);
  ch.PopArrived(Timestamp::Max(), 1);  // down to 2 == resume threshold
  EXPECT_EQ(fired, 1);
  // Signal is one-shot until the next refusal.
  ch.PopArrived(Timestamp::Max(), 1);
  EXPECT_EQ(fired, 1);
}

TEST(PushChannelTest, SpaceCallbackFiresOnClose) {
  PushChannel ch;
  ch.SetCapacity(1);
  int fired = 0;
  ch.SetSpaceAvailableCallback([&] { ++fired; });
  ASSERT_EQ(ch.Offer(Token(1), Timestamp(0)), PushOutcome::kAccepted);
  ASSERT_EQ(ch.Offer(Token(2), Timestamp(0)), PushOutcome::kFull);
  ch.Close();  // a paused producer must learn the channel is gone
  EXPECT_EQ(fired, 1);
}

TEST(PushChannelTest, CheckTokenIsNonFatal) {
  PushChannel ch;
  EXPECT_TRUE(ch.CheckToken(Token(1)).ok());  // no schema: everything passes
  RecordSchema schema;
  schema.Int("car");
  ch.SetExpectedSchema(TokenType::Record(schema), "typed");
  EXPECT_FALSE(ch.CheckToken(Token(1)).ok());
  EXPECT_FALSE(ch.expected_schema().is_unknown());
}

TEST(StreamSourceActorTest, PrefireTracksClockAndData) {
  auto ch = std::make_shared<PushChannel>();
  StreamSourceActor src("src", ch);
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(src.Initialize(&ctx).ok());
  EXPECT_FALSE(src.Prefire().value());
  ch->Push(Token(1), Timestamp::Seconds(5));
  EXPECT_FALSE(src.Prefire().value());  // arrival in the future
  clock.AdvanceTo(Timestamp::Seconds(5));
  EXPECT_TRUE(src.Prefire().value());
}

TEST(StreamSourceActorTest, FireInjectsArrivedWithArrivalStamps) {
  auto ch = std::make_shared<PushChannel>();
  StreamSourceActor src("src", ch);
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(src.Initialize(&ctx).ok());
  ch->Push(Token(1), Timestamp::Seconds(1));
  ch->Push(Token(2), Timestamp::Seconds(2));
  ch->Push(Token(3), Timestamp::Seconds(9));
  clock.AdvanceTo(Timestamp::Seconds(3));
  src.BeginFiring();
  ASSERT_TRUE(src.Fire().ok());
  auto out = src.TakePendingOutputs();
  ASSERT_EQ(out.size(), 2u);  // the t=9 tuple has not arrived yet
  EXPECT_EQ(out[0].external_timestamp.value(), Timestamp::Seconds(1));
  EXPECT_EQ(out[1].external_timestamp.value(), Timestamp::Seconds(2));
  EXPECT_EQ(src.injected(), 2u);
}

TEST(StreamSourceActorTest, ExhaustedOnlyWhenClosedAndDrained) {
  auto ch = std::make_shared<PushChannel>();
  StreamSourceActor src("src", ch);
  EXPECT_FALSE(src.Exhausted());  // open channel: more may come
  ch->Push(Token(1), Timestamp(0));
  ch->Close();
  EXPECT_FALSE(src.Exhausted());  // still has a queued tuple
  ch->PopArrived(Timestamp::Max());
  EXPECT_TRUE(src.Exhausted());
}

TEST(StreamSourceActorTest, IsSourceAndBatchLimit) {
  auto ch = std::make_shared<PushChannel>();
  StreamSourceActor src("src", ch, /*max_batch_per_firing=*/1);
  EXPECT_TRUE(src.IsSource());
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(src.Initialize(&ctx).ok());
  ch->Push(Token(1), Timestamp(0));
  ch->Push(Token(2), Timestamp(0));
  src.BeginFiring();
  ASSERT_TRUE(src.Fire().ok());
  EXPECT_EQ(src.TakePendingOutputs().size(), 1u);  // capped batch
}

}  // namespace
}  // namespace cwf

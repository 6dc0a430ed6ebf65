#include <gtest/gtest.h>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ints;

CWEvent WaveEv(int64_t value, WaveTag tag, bool last, uint64_t seq) {
  CWEvent e;
  e.token = Token(value);
  e.timestamp = Timestamp(static_cast<int64_t>(seq));
  e.wave = std::move(tag);
  e.last_in_wave = last;
  e.seq = seq;
  return e;
}

TEST(WaveWindowTest, RootEventIsACompleteWave) {
  WindowOperator op(WindowSpec::Waves(1, 1));
  std::vector<Window> out;
  CWEvent root = WaveEv(7, WaveTag::Root(1), /*last=*/true, 1);
  ASSERT_TRUE(op.Put(root, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{7}));
}

TEST(WaveWindowTest, SubWaveCompletesOnLastSerial) {
  WindowOperator op(WindowSpec::Waves(1, 1));
  std::vector<Window> out;
  WaveTag parent = WaveTag::Root(5);
  // Wave t5: events t5.1, t5.2, t5.3 with the third marked last.
  ASSERT_TRUE(op.Put(WaveEv(1, parent.Child(1), false, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(2, parent.Child(2), false, 2), &out).ok());
  EXPECT_TRUE(out.empty());  // not complete
  ASSERT_TRUE(op.Put(WaveEv(3, parent.Child(3), true, 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{1, 2, 3}));
}

TEST(WaveWindowTest, LastArrivingOutOfOrderStillCompletes) {
  WindowOperator op(WindowSpec::Waves(1, 1));
  std::vector<Window> out;
  WaveTag parent = WaveTag::Root(9);
  // The "last" marker (serial 2) arrives before serial 1.
  ASSERT_TRUE(op.Put(WaveEv(2, parent.Child(2), true, 1), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(op.Put(WaveEv(1, parent.Child(1), false, 2), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST(WaveWindowTest, InterleavedWavesSeparateCorrectly) {
  WindowOperator op(WindowSpec::Waves(1, 1));
  std::vector<Window> out;
  WaveTag wa = WaveTag::Root(1);
  WaveTag wb = WaveTag::Root(2);
  ASSERT_TRUE(op.Put(WaveEv(11, wa.Child(1), false, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(21, wb.Child(1), false, 2), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(22, wb.Child(2), true, 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);  // wave b complete first
  EXPECT_EQ(Ints(out[0]), (std::vector<int64_t>{21, 22}));
  ASSERT_TRUE(op.Put(WaveEv(12, wa.Child(2), true, 4), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(Ints(out[1]), (std::vector<int64_t>{11, 12}));
}

TEST(WaveWindowTest, MultiWaveWindowGathersSeveralWaves) {
  WindowOperator op(WindowSpec::Waves(2, 2));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(WaveEv(1, WaveTag::Root(1), true, 1), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(op.Put(WaveEv(2, WaveTag::Root(2), true, 2), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST(WaveWindowTest, SlidingWavesExpireDroppedWave) {
  WindowOperator op(WindowSpec::Waves(2, 1));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(WaveEv(1, WaveTag::Root(1), true, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(2, WaveTag::Root(2), true, 2), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(3, WaveTag::Root(3), true, 3), &out).ok());
  ASSERT_EQ(out.size(), 2u);  // {1,2}, {2,3}
  // Waves 1 and 2 have slid out of scope by now; wave 3 stays buffered.
  EXPECT_EQ(op.expired_count(), 2u);
  EXPECT_EQ(op.PendingEventCount(), 1u);
}

TEST(WaveWindowTest, DeleteUsedConsumesWaves) {
  WindowOperator op(WindowSpec::Waves(2, 1).DeleteUsedEvents(true));
  std::vector<Window> out;
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(op.Put(WaveEv(static_cast<int64_t>(i), WaveTag::Root(i), true,
                              i),
                       &out)
                    .ok());
  }
  ASSERT_EQ(out.size(), 2u);  // {1,2}, {3,4}
  EXPECT_EQ(op.expired_count(), 0u);
}

TEST(WaveWindowTest, FlushEmitsCompletedButUnwindowedWaves) {
  WindowOperator op(WindowSpec::Waves(3, 3));
  std::vector<Window> out;
  ASSERT_TRUE(op.Put(WaveEv(1, WaveTag::Root(1), true, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(2, WaveTag::Root(2), true, 2), &out).ok());
  EXPECT_TRUE(out.empty());
  op.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST(WaveWindowTest, PendingCountsBufferedWaveEvents) {
  WindowOperator op(WindowSpec::Waves(1, 1));
  std::vector<Window> out;
  WaveTag parent = WaveTag::Root(3);
  ASSERT_TRUE(op.Put(WaveEv(1, parent.Child(1), false, 1), &out).ok());
  ASSERT_TRUE(op.Put(WaveEv(2, parent.Child(2), false, 2), &out).ok());
  EXPECT_EQ(op.PendingEventCount(), 2u);
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

using testutil::Rec;

CWEvent KeyedWaveEv(int64_t key, int64_t value, WaveTag tag, bool last,
                    uint64_t seq) {
  CWEvent e;
  e.token = Rec({{"k", Value(key)}, {"v", Value(value)}});
  e.timestamp = Timestamp(static_cast<int64_t>(seq));
  e.wave = std::move(tag);
  e.last_in_wave = last;
  e.seq = seq;
  return e;
}

TEST(WaveWindowTest, GroupByPartitionsWaves) {
  // Wave-based windows combined with group-by: each key synchronizes its
  // own share of the wave's events independently.
  WindowOperator op(WindowSpec::Waves(1, 1).GroupBy({"k"}));
  std::vector<Window> out;
  WaveTag w = WaveTag::Root(4);
  // One wave of 4 events, 2 per key; the last-marked event (serial 4)
  // belongs to key 1.
  ASSERT_TRUE(op.Put(KeyedWaveEv(0, 10, w.Child(1), false, 1), &out).ok());
  ASSERT_TRUE(op.Put(KeyedWaveEv(1, 11, w.Child(2), false, 2), &out).ok());
  ASSERT_TRUE(op.Put(KeyedWaveEv(0, 20, w.Child(3), false, 3), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(op.Put(KeyedWaveEv(1, 21, w.Child(4), true, 4), &out).ok());
  // Key 1 saw the last marker with serial 4 but holds only 2 of the 4
  // serials; key 0 never saw the marker: per-key waves stay open until
  // their own completion criteria are met. Flush surfaces the remainder.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(op.PendingEventCount(), 4u);
  op.Flush(&out);
  EXPECT_TRUE(out.empty());  // no *complete* waves existed per key
}

TEST(WaveWindowTest, GroupByWithPerKeyCompleteWaves) {
  // When each key receives a full wave of its own (its serial count matches
  // the last marker it sees), windows fire per key.
  WindowOperator op(WindowSpec::Waves(1, 1).GroupBy({"k"}));
  std::vector<Window> out;
  // Two root events (complete singleton waves), one per key.
  CWEvent a = KeyedWaveEv(0, 1, WaveTag::Root(1), true, 1);
  CWEvent b = KeyedWaveEv(1, 2, WaveTag::Root(2), true, 2);
  ASSERT_TRUE(op.Put(a, &out).ok());
  ASSERT_TRUE(op.Put(b, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].group_key.Field("k").AsInt(), 0);
  EXPECT_EQ(out[1].group_key.Field("k").AsInt(), 1);
}

}  // namespace
}  // namespace cwf

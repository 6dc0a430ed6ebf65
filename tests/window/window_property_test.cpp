// Property-style parameterized sweeps over window semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;

struct TupleParams {
  int64_t size;
  int64_t step;
  bool delete_used;
  int64_t n_events;
};

// gtest names a parameter it cannot print by its bytes, struct padding
// included, so each parameter struct gets a readable name.
std::string TupleName(const TupleParams& p) {
  return "Size" + std::to_string(p.size) + "_Step" + std::to_string(p.step) +
         (p.delete_used ? "_Consume_N" : "_Slide_N") +
         std::to_string(p.n_events);
}

void PrintTo(const TupleParams& p, std::ostream* os) { *os << TupleName(p); }

class TupleWindowProperty : public ::testing::TestWithParam<TupleParams> {};

// Invariant set for count-based windows over a strictly increasing stream:
//  1. every produced window has exactly `size` events;
//  2. window contents are contiguous, in-order slices;
//  3. consecutive windows start `step` (or `size` under consumption) apart;
//  4. conservation: every input event is in >=0 windows and ends up
//     used, pending or expired — never silently lost.
TEST_P(TupleWindowProperty, Invariants) {
  const TupleParams p = GetParam();
  WindowOperator op(
      WindowSpec::Tuples(p.size, p.step).DeleteUsedEvents(p.delete_used));
  std::vector<Window> windows;
  for (int64_t i = 0; i < p.n_events; ++i) {
    ASSERT_TRUE(op.Put(Ev(Token(i), i + 1), &windows).ok());
  }
  const int64_t advance = p.delete_used ? p.size : p.step;
  int64_t expected_start = 0;
  for (const Window& w : windows) {
    ASSERT_EQ(static_cast<int64_t>(w.size()), p.size);
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w.events[i].token.AsInt(),
                expected_start + static_cast<int64_t>(i));
    }
    expected_start += advance;
  }
  // Expected window count: floor((n - size) / advance) + 1 when n >= size.
  const int64_t expected_windows =
      p.n_events >= p.size ? (p.n_events - p.size) / advance + 1 : 0;
  EXPECT_EQ(static_cast<int64_t>(windows.size()), expected_windows);

  // Conservation.
  const uint64_t expired = op.expired_count();
  const size_t pending = op.PendingEventCount();
  if (p.delete_used) {
    EXPECT_EQ(static_cast<int64_t>(pending),
              p.n_events - expected_windows * p.size);
    EXPECT_EQ(expired, 0u);
  } else {
    EXPECT_EQ(static_cast<int64_t>(pending + expired), p.n_events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TupleWindowProperty,
    ::testing::Values(TupleParams{1, 1, false, 10}, TupleParams{1, 1, true, 10},
                      TupleParams{4, 1, false, 25}, TupleParams{4, 1, true, 25},
                      TupleParams{4, 4, false, 25}, TupleParams{4, 4, true, 25},
                      TupleParams{2, 3, false, 20}, TupleParams{2, 3, true, 20},
                      TupleParams{5, 2, false, 33}, TupleParams{7, 7, true, 50},
                      TupleParams{10, 3, false, 100},
                      TupleParams{3, 10, false, 100}),
    [](const ::testing::TestParamInfo<TupleParams>& info) {
      return TupleName(info.param);
    });

struct TimeParams {
  int64_t size_s;
  int64_t step_s;
  bool delete_used;
  int64_t n_events;
  int64_t spacing_s;  // inter-event gap
};

std::string TimeName(const TimeParams& p) {
  return "Size" + std::to_string(p.size_s) + "s_Step" +
         std::to_string(p.step_s) + "s" +
         (p.delete_used ? "_Consume_N" : "_Slide_N") +
         std::to_string(p.n_events) + "_Gap" + std::to_string(p.spacing_s) +
         "s";
}

void PrintTo(const TimeParams& p, std::ostream* os) { *os << TimeName(p); }

class TimeWindowProperty : public ::testing::TestWithParam<TimeParams> {};

// Invariants for time windows over an in-order stream:
//  1. all events of a window fall within one [start, start+size) span;
//  2. window spans are step-aligned to the epoch;
//  3. events are never lost (window'd, pending or expired).
TEST_P(TimeWindowProperty, Invariants) {
  const TimeParams p = GetParam();
  WindowOperator op(WindowSpec::Time(Seconds(p.size_s), Seconds(p.step_s))
                        .DeleteUsedEvents(p.delete_used));
  std::vector<Window> windows;
  for (int64_t i = 0; i < p.n_events; ++i) {
    ASSERT_TRUE(
        op.Put(Ev(Token(i), Seconds(1 + i * p.spacing_s)), &windows).ok());
  }
  op.Flush(&windows);
  size_t events_in_windows = 0;
  for (const Window& w : windows) {
    ASSERT_FALSE(w.empty());
    const int64_t span =
        w.back().timestamp.micros() - w.front().timestamp.micros();
    EXPECT_LT(span, Seconds(p.size_s));
    events_in_windows += w.size();
  }
  if (p.delete_used) {
    // Consumption semantics: every event lands in exactly one window or
    // expires unused (stragglers between gapped windows).
    EXPECT_EQ(static_cast<int64_t>(events_in_windows + op.expired_count()),
              p.n_events);
  } else if (p.step_s >= p.size_s) {
    // Non-consuming tumbling windows: each event appears in at most one
    // window (and additionally expires once it slides out).
    EXPECT_LE(static_cast<int64_t>(events_in_windows), p.n_events);
    EXPECT_LE(static_cast<int64_t>(op.expired_count()), p.n_events);
  } else {
    // Overlapping windows may duplicate events.
    EXPECT_GE(static_cast<int64_t>(events_in_windows), p.n_events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TimeWindowProperty,
    ::testing::Values(TimeParams{60, 60, true, 50, 7},
                      TimeParams{60, 60, false, 50, 7},
                      TimeParams{60, 30, false, 50, 7},
                      TimeParams{10, 10, true, 100, 1},
                      TimeParams{10, 5, false, 100, 1},
                      TimeParams{5, 20, true, 60, 2},
                      TimeParams{120, 120, true, 30, 11}),
    [](const ::testing::TestParamInfo<TimeParams>& info) {
      return TimeName(info.param);
    });

// Group-by property: windows formed per key match windows formed by running
// one operator per key.
class GroupByProperty : public ::testing::TestWithParam<int> {};

TEST_P(GroupByProperty, EquivalentToPerKeyOperators) {
  const int num_keys = GetParam();
  WindowOperator grouped(WindowSpec::Tuples(3, 2).GroupBy({"k"}));
  std::vector<std::unique_ptr<WindowOperator>> isolated;
  for (int k = 0; k < num_keys; ++k) {
    isolated.push_back(
        std::make_unique<WindowOperator>(WindowSpec::Tuples(3, 2)));
  }
  std::vector<Window> grouped_out;
  std::vector<std::vector<Window>> isolated_out(num_keys);
  for (int64_t i = 0; i < 200; ++i) {
    const int k = static_cast<int>((i * 7) % num_keys);
    CWEvent e = Ev(testutil::Rec({{"k", Value(k)}, {"v", Value(i)}}), i + 1);
    ASSERT_TRUE(grouped.Put(e, &grouped_out).ok());
    ASSERT_TRUE(isolated[k]->Put(e, &isolated_out[k]).ok());
  }
  // Same total window count, and grouped windows per key equal isolated ones.
  size_t total_isolated = 0;
  for (const auto& outs : isolated_out) {
    total_isolated += outs.size();
  }
  ASSERT_EQ(grouped_out.size(), total_isolated);
  std::vector<size_t> cursor(num_keys, 0);
  for (const Window& w : grouped_out) {
    const int k = static_cast<int>(w.group_key.Field("k").AsInt());
    const Window& expect = isolated_out[k][cursor[k]++];
    ASSERT_EQ(w.size(), expect.size());
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w.events[i].token.Field("v").AsInt(),
                expect.events[i].token.Field("v").AsInt());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupByProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// Pending-counter property: over a random mix of grouped Puts (including
// time stragglers and interleaved sub-waves), timeouts and flushes, the O(1)
// PendingEventCount() equals a brute-force count kept outside the operator:
// every event put, minus every event expired, minus (under consumption
// semantics) every event handed out in a window; Flush empties everything.
struct CounterParams {
  WindowUnit unit;
  bool delete_used;
  uint64_t seed;
};

std::string CounterName(const CounterParams& p) {
  const char* unit = p.unit == WindowUnit::kTuples ? "Tuples"
                     : p.unit == WindowUnit::kTime ? "Time"
                                                   : "Waves";
  return std::string(unit) + (p.delete_used ? "_Consume_Seed" : "_Slide_Seed") +
         std::to_string(p.seed);
}

void PrintTo(const CounterParams& p, std::ostream* os) {
  *os << CounterName(p);
}

class PendingCounterProperty
    : public ::testing::TestWithParam<CounterParams> {};

TEST_P(PendingCounterProperty, MatchesBruteForceCountAfterEveryOperation) {
  const CounterParams p = GetParam();
  std::mt19937_64 rng(p.seed);
  auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const int64_t size = uniform(1, 4);
  const int64_t step = uniform(1, 5);
  WindowSpec spec = WindowSpec::Waves(size, step);
  if (p.unit == WindowUnit::kTuples) {
    spec = WindowSpec::Tuples(size, step);
  } else if (p.unit == WindowUnit::kTime) {
    spec = WindowSpec::Time(Seconds(size), Seconds(step))
               .FormationTimeout(Seconds(1));
  }
  WindowOperator op(spec.GroupBy({"k"}).DeleteUsedEvents(p.delete_used));
  SCOPED_TRACE("size=" + std::to_string(size) +
               " step=" + std::to_string(step));

  // Open (incomplete) waves: tag, serials still to send, last serial.
  struct OpenWave {
    WaveTag tag;
    int64_t key;
    std::vector<uint32_t> unsent;
    uint32_t last;
  };
  std::vector<OpenWave> open_waves;
  uint64_t next_root = 1;
  int64_t now_us = 0;
  int64_t expected = 0;
  // expired_count() as of the last settle.
  uint64_t expired_seen = 0;

  std::vector<Window> out;
  auto settle = [&](size_t windows_before) {
    if (p.delete_used) {
      for (size_t i = windows_before; i < out.size(); ++i) {
        expected -= static_cast<int64_t>(out[i].size());
      }
    }
    expected -= static_cast<int64_t>(op.expired_count() - expired_seen);
    expired_seen = op.expired_count();
  };

  for (int i = 0; i < 2000; ++i) {
    const size_t before = out.size();
    const int64_t roll = uniform(0, 99);
    if (roll == 0) {
      op.Flush(&out);
      expired_seen = op.expired_count();
      open_waves.clear();
      expected = 0;
    } else if (roll < 8 && p.unit == WindowUnit::kTime) {
      now_us += uniform(0, Seconds(3));
      op.OnTimeout(Timestamp(now_us), &out);
      settle(before);
    } else {
      const int64_t key = uniform(0, 4);
      CWEvent e = Ev(testutil::Rec({{"k", Value(key)}}), now_us);
      if (p.unit == WindowUnit::kTime) {
        now_us += uniform(0, Seconds(2));
        // One event in ten is a straggler from up to 15 s back.
        e.timestamp = Timestamp(
            uniform(0, 9) == 0
                ? std::max<int64_t>(0, now_us - uniform(0, Seconds(15)))
                : now_us);
      } else if (p.unit == WindowUnit::kWaves) {
        size_t pick = 0;
        if (open_waves.empty() || uniform(0, 2) == 0) {
          const uint32_t m = static_cast<uint32_t>(uniform(1, 3));
          OpenWave w{WaveTag::Root(next_root++), key, {}, m};
          for (uint32_t s = 1; s <= m; ++s) {
            w.unsent.push_back(s);
          }
          std::shuffle(w.unsent.begin(), w.unsent.end(), rng);
          open_waves.push_back(std::move(w));
          // A new wave sends its first event at once: a wave id must reach
          // the operator before any later wave of its group is consumed.
          pick = open_waves.size() - 1;
        } else {
          pick = static_cast<size_t>(
              uniform(0, static_cast<int64_t>(open_waves.size()) - 1));
        }
        OpenWave& w = open_waves[pick];
        const uint32_t serial = w.unsent.back();
        w.unsent.pop_back();
        e.token = testutil::Rec({{"k", Value(w.key)}});
        e.wave = w.tag.Child(serial);
        e.last_in_wave = serial == w.last;
        if (w.unsent.empty()) {
          open_waves.erase(open_waves.begin() + static_cast<ptrdiff_t>(pick));
        }
      }
      ASSERT_TRUE(op.Put(e, &out).ok());
      ++expected;
      settle(before);
    }
    ASSERT_EQ(static_cast<int64_t>(op.PendingEventCount()), expected)
        << "after operation " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PendingCounterProperty,
    ::testing::Values(CounterParams{WindowUnit::kTuples, false, 1},
                      CounterParams{WindowUnit::kTuples, true, 2},
                      CounterParams{WindowUnit::kTuples, false, 3},
                      CounterParams{WindowUnit::kTime, false, 4},
                      CounterParams{WindowUnit::kTime, true, 5},
                      CounterParams{WindowUnit::kTime, false, 6},
                      CounterParams{WindowUnit::kWaves, false, 7},
                      CounterParams{WindowUnit::kWaves, true, 8},
                      CounterParams{WindowUnit::kWaves, false, 9}),
    [](const ::testing::TestParamInfo<CounterParams>& info) {
      return CounterName(info.param);
    });

}  // namespace
}  // namespace cwf

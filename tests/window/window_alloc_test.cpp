// Allocation guard for the window deposit path. Replaces the global
// operator new with a counting one, which is why this test is its own
// binary.
//
// A deposit into an existing group must not allocate for its key: the key
// is hashed from the event's own record and compared against the group's
// stored key values. What remains is amortized buffer growth and the window
// each close produces. A new group's memory is held to a budget of live
// heap bytes per group.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/port.h"
#include "lrb/types.h"
#include "window/window_operator.h"
#include "window/windowed_receiver.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
/// Bytes requested and not yet freed. Each block carries its requested
/// size in a header of malloc's alignment, so delete can subtract it.
std::atomic<int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(kHeader + size)) {
    *static_cast<std::size_t*>(block) = size;
    g_live_bytes.fetch_add(static_cast<int64_t>(size),
                           std::memory_order_relaxed);
    return static_cast<char*>(block) + kHeader;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace cwf {
namespace {

CWEvent KeyedEvent(int64_t key, int64_t ts_us, uint64_t seq) {
  auto rec = std::make_shared<Record>();
  rec->Set("v", Value(static_cast<int64_t>(seq)));
  rec->Set("k", Value(key));
  CWEvent e;
  e.token = Token(RecordPtr(std::move(rec)));
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

TEST(WindowAllocTest, PutIntoExistingTimeGroupsBarelyAllocates) {
  constexpr int64_t kGroups = 8;
  constexpr uint64_t kPuts = 20000;
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .GroupBy({"k"})
                        .DeleteUsedEvents(true));
  // Events 10 ms apart, round-robin over the groups: 200 s of stream, so
  // every group closes three windows inside the measured loop.
  std::vector<CWEvent> events;
  events.reserve(kPuts);
  for (uint64_t i = 0; i < kPuts; ++i) {
    events.push_back(KeyedEvent(static_cast<int64_t>(i) % kGroups,
                                static_cast<int64_t>(i) * 10000, i + 1));
  }
  std::vector<Window> out;
  out.reserve(16);
  for (int64_t k = 0; k < kGroups; ++k) {
    ASSERT_TRUE(op.Put(KeyedEvent(k, 0, 0), &out).ok());
  }
  ASSERT_EQ(op.GroupCount(), static_cast<size_t>(kGroups));

  size_t windows = 0;
  const uint64_t before = g_allocations.load();
  for (const CWEvent& e : events) {
    out.clear();
    if (!op.Put(e, &out).ok()) {
      ADD_FAILURE() << "Put failed";
      break;
    }
    windows += out.size();
  }
  const uint64_t allocations = g_allocations.load() - before;
  out.clear();

  EXPECT_EQ(op.GroupCount(), static_cast<size_t>(kGroups));
  EXPECT_EQ(windows, static_cast<size_t>(3 * kGroups));
  const double per_put =
      static_cast<double>(allocations) / static_cast<double>(kPuts);
  EXPECT_LT(per_put, 0.1) << allocations << " allocations over " << kPuts
                          << " puts";
}

// A Linear Road position report, built as the generator builds it.
CWEvent ReportEvent(int64_t car, int64_t ts_us, uint64_t seq) {
  lrb::PositionReport report;
  report.time = ts_us / 1000000;
  report.car = car;
  report.speed = 55.0;
  report.xway = car % 4;
  report.lane = 1;
  report.dir = car % 2;
  report.seg = car % 100;
  report.pos = car * 7;
  CWEvent e;
  e.token = report.ToToken();
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

TEST(WindowAllocTest, NewGroupBytesWithinBudget) {
  // Avgsv's spec: a 60 s tumbling window keyed by four int fields. Every
  // deposit opens a new group. The events and the operator are built
  // before the first reading, so what is counted is the heap the groups
  // hold: group state, key values, index slot and the buffered event,
  // averaged over the groups (the containers' geometric growth included).
  constexpr int64_t kGroups = 100000;
  // The figure measured on the operator before its group table and the db
  // hash index shared one implementation, plus that measurement's spread:
  // 517.23816 in each of three runs, so the spread is 0. Lower it when a
  // change shrinks a group; never raise it to pass.
  constexpr double kBytesPerGroupBudget = 517.23816;
  std::vector<CWEvent> events;
  events.reserve(kGroups);
  for (int64_t car = 0; car < kGroups; ++car) {
    events.push_back(ReportEvent(car, 1000, static_cast<uint64_t>(car) + 1));
  }
  std::vector<Window> out;
  auto op = std::make_unique<WindowOperator>(
      WindowSpec::Time(Seconds(60), Seconds(60))
          .GroupBy({"car", "xway", "dir", "seg"})
          .DeleteUsedEvents(true));
  const int64_t before = g_live_bytes.load();
  for (const CWEvent& e : events) {
    ASSERT_TRUE(op->Put(e, &out).ok());
  }
  const double per_group =
      static_cast<double>(g_live_bytes.load() - before) / kGroups;
  EXPECT_EQ(op->GroupCount(), static_cast<size_t>(kGroups));
  EXPECT_TRUE(out.empty());
  EXPECT_LE(per_group, kBytesPerGroupBudget);
  RecordProperty("bytes_per_group", std::to_string(per_group));
  std::printf("bytes per new group: %.5f\n", per_group);
}

TEST(WindowAllocTest, TrivialSpecReceiverCreatesNoGroup) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, port.spec());
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(r.Put(KeyedEvent(static_cast<int64_t>(i), 0, i)).ok());
    std::optional<Window> w = r.Get();
    ASSERT_TRUE(w.has_value());
    ASSERT_EQ(w->size(), 1u);
    EXPECT_EQ(w->front().seq, i);
    EXPECT_TRUE(w->group_key.is_nil());
  }
  EXPECT_EQ(r.window_operator().GroupCount(), 0u);
  EXPECT_EQ(r.window_operator().windows_produced(), 100u);
  EXPECT_EQ(r.PendingEventCount(), 0u);
  EXPECT_FALSE(r.HasWindow());
}

}  // namespace
}  // namespace cwf

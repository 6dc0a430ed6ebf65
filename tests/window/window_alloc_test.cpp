// Allocation guard for the window deposit path. Replaces the global
// operator new with a counting one, which is why this test is its own
// binary.
//
// A deposit into an existing group must not allocate for its key: the key
// is hashed from the event's own record and compared against the group's
// stored key values. What remains is amortized buffer growth and the window
// each close produces.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/port.h"
#include "window/window_operator.h"
#include "window/windowed_receiver.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

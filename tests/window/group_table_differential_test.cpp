// Differential test of WindowOperator's group table against a reference
// model: a plain std::map<std::vector<Value>, group> operator that resolves
// every group-by field by name on every deposit. Random streams (0–4
// group-by fields of mixed types, records whose fields arrive in different
// orders on one channel, stragglers, missing fields, sub-waves) go through
// both; every produced window, deadline, pending/expired count and error
// must match exactly, every accepted event must be accounted for (consumed
// by a window, pending or expired), and Flush must emit in ascending key
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "window/window_operator.h"

namespace cwf {
namespace {

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

using RefKey = std::vector<Value>;

class ReferenceOperator {
 public:
  explicit ReferenceOperator(WindowSpec spec) : spec_(std::move(spec)) {}

  Status Put(const CWEvent& event, std::vector<Window>* out) {
    RefKey key;
    Token key_token;
    if (!spec_.group_by.empty()) {
      if (!event.token.is_record()) {
        return Status::InvalidArgument(
            "group-by window requires record tokens, got " +
            event.token.ToString());
      }
      const RecordPtr& rec = event.token.AsRecord();
      auto key_rec = std::make_shared<Record>();
      for (const std::string& field : spec_.group_by) {
        auto value = rec->Get(field);
        if (!value.ok()) {
          return Status::InvalidArgument("group-by field '" + field +
                                         "' missing from " + rec->ToString());
        }
        key.push_back(value.value());
        key_rec->Set(field, std::move(value).value());
      }
      key_token = Token(RecordPtr(std::move(key_rec)));
    }
    Group& g = groups_[key];
    if (g.key_token.is_nil()) {
      g.key_token = key_token;
    }
    switch (spec_.unit) {
      case WindowUnit::kTuples:
        PutTuple(&g, event, out);
        break;
      case WindowUnit::kTime:
        PutTime(&g, event, out);
        UpdateDeadline(key, &g);
        break;
      case WindowUnit::kWaves:
        PutWave(&g, event, out);
        break;
    }
    return Status::OK();
  }

  Timestamp NextDeadline() const {
    return deadlines_.empty() ? Timestamp::Max() : deadlines_.begin()->first;
  }

  void OnTimeout(Timestamp now, std::vector<Window>* out) {
    if (spec_.unit != WindowUnit::kTime || spec_.formation_timeout < 0) {
      return;
    }
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      const RefKey key = deadlines_.begin()->second;
      Group& g = groups_.at(key);
      while (!g.queue.empty() &&
             g.start + spec_.size + spec_.formation_timeout <= now) {
        const size_t before = out->size();
        CloseTime(&g, out);
        for (size_t i = before; i < out->size(); ++i) {
          (*out)[i].closed_by_timeout = true;
        }
      }
      UpdateDeadline(key, &g);
    }
  }

  void Flush(std::vector<Window>* out) {
    for (auto& [key, g] : groups_) {
      if (spec_.unit == WindowUnit::kWaves) {
        std::vector<CWEvent> events;
        for (const WaveTag& tag : g.completed) {
          const auto& buffered = g.wave_buffers[tag];
          events.insert(events.end(), buffered.begin(), buffered.end());
        }
        if (!events.empty()) {
          out->push_back(MakeWindow(g, std::move(events)));
        }
        g.completed.clear();
        g.wave_buffers.clear();
        g.last_serial.clear();
        continue;
      }
      if (!g.queue.empty()) {
        out->push_back(
            MakeWindow(g, std::vector<CWEvent>(g.queue.begin(), g.queue.end())));
        g.queue.clear();
      }
      UpdateDeadline(key, &g);
    }
  }

  uint64_t expired_count() const { return expired_; }

  size_t PendingEventCount() const {
    size_t count = 0;
    for (const auto& [key, g] : groups_) {
      count += g.queue.size();
      for (const auto& [tag, events] : g.wave_buffers) {
        count += events.size();
      }
    }
    return count;
  }

  size_t GroupCount() const { return groups_.size(); }

 private:
  struct Group {
    std::deque<CWEvent> queue;
    size_t skip = 0;
    bool start_set = false;
    Timestamp start;
    Token key_token;
    std::map<WaveTag, std::vector<CWEvent>> wave_buffers;
    std::map<WaveTag, uint32_t> last_serial;
    std::deque<WaveTag> completed;
    Timestamp deadline = Timestamp::Max();
  };

  static Window MakeWindow(const Group& g, std::vector<CWEvent> events) {
    Window w;
    w.group_key = g.key_token;
    w.events = std::move(events);
    return w;
  }

  void PutTuple(Group* g, const CWEvent& event, std::vector<Window>* out) {
    if (g->skip > 0) {
      --g->skip;
      ++expired_;
      return;
    }
    g->queue.push_back(event);
    const size_t size = static_cast<size_t>(spec_.size);
    const size_t step = static_cast<size_t>(spec_.step);
    while (g->queue.size() >= size) {
      out->push_back(MakeWindow(
          *g, std::vector<CWEvent>(g->queue.begin(), g->queue.begin() + size)));
      if (spec_.delete_used_events) {
        g->queue.erase(g->queue.begin(), g->queue.begin() + size);
      } else {
        const size_t drop = std::min(step, g->queue.size());
        g->skip = step - drop;
        for (size_t i = 0; i < drop; ++i) {
          ++expired_;
          g->queue.pop_front();
        }
      }
    }
  }

  void PutTime(Group* g, const CWEvent& event, std::vector<Window>* out) {
    const Duration size = spec_.size;
    const Duration step = spec_.step;
    if (!g->start_set) {
      g->start = Timestamp((event.timestamp.micros() / step) * step);
      g->start_set = true;
    }
    for (;;) {
      if (event.timestamp < g->start) {
        ++expired_;
        return;
      }
      if (event.timestamp < g->start + size) {
        g->queue.push_back(event);
        return;
      }
      if (g->queue.empty()) {
        g->start = Timestamp((event.timestamp.micros() / step) * step);
        while (g->start + size <= event.timestamp) {
          g->start += step;
        }
        continue;
      }
      CloseTime(g, out);
    }
  }

  void CloseTime(Group* g, std::vector<Window>* out) {
    if (!g->queue.empty()) {
      out->push_back(
          MakeWindow(*g, std::vector<CWEvent>(g->queue.begin(), g->queue.end())));
    }
    g->start += spec_.step;
    if (spec_.delete_used_events) {
      g->queue.clear();
    } else {
      while (!g->queue.empty() && g->queue.front().timestamp < g->start) {
        ++expired_;
        g->queue.pop_front();
      }
    }
  }

  void UpdateDeadline(const RefKey& key, Group* g) {
    Timestamp deadline = Timestamp::Max();
    if (spec_.formation_timeout >= 0 && g->start_set && !g->queue.empty()) {
      deadline = g->start + spec_.size + spec_.formation_timeout;
    }
    if (deadline == g->deadline) {
      return;
    }
    if (g->deadline != Timestamp::Max()) {
      auto range = deadlines_.equal_range(g->deadline);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == key) {
          deadlines_.erase(it);
          break;
        }
      }
    }
    if (deadline != Timestamp::Max()) {
      deadlines_.emplace(deadline, key);
    }
    g->deadline = deadline;
  }

  void PutWave(Group* g, const CWEvent& event, std::vector<Window>* out) {
    const WaveTag wave =
        event.wave.depth() == 0 ? event.wave : event.wave.Parent();
    auto& buffer = g->wave_buffers[wave];
    buffer.push_back(event);
    if (event.last_in_wave) {
      g->last_serial[wave] =
          event.wave.depth() == 0 ? 1 : event.wave.path().back();
    }
    auto last = g->last_serial.find(wave);
    if (last != g->last_serial.end() && buffer.size() >= last->second) {
      g->completed.push_back(wave);
      g->last_serial.erase(last);
    }
    const size_t size = static_cast<size_t>(spec_.size);
    const size_t step = static_cast<size_t>(spec_.step);
    while (g->completed.size() >= size) {
      std::vector<CWEvent> events;
      for (size_t i = 0; i < size; ++i) {
        const auto& buffered = g->wave_buffers[g->completed[i]];
        events.insert(events.end(), buffered.begin(), buffered.end());
      }
      out->push_back(MakeWindow(*g, std::move(events)));
      const size_t drop = spec_.delete_used_events
                              ? size
                              : std::min(step, g->completed.size());
      for (size_t i = 0; i < drop; ++i) {
        auto it = g->wave_buffers.find(g->completed.front());
        if (!spec_.delete_used_events) {
          expired_ += it->second.size();
        }
        g->wave_buffers.erase(it);
        g->completed.pop_front();
      }
    }
  }

  WindowSpec spec_;
  std::map<RefKey, Group> groups_;
  std::multimap<Timestamp, RefKey> deadlines_;
  uint64_t expired_ = 0;
};

// ---------------------------------------------------------------------------
// Random streams
// ---------------------------------------------------------------------------

const std::vector<std::string> kFieldPool = {"a", "b", "c", "d", "e"};

// Small per-type domains so keys repeat; the long string defeats the small
// string buffer.
Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return Value(static_cast<int64_t>(rng() % 4) - 1);
    case 1:
      return Value(static_cast<double>(rng() % 3) * 0.5);
    case 2:
      return Value(rng() % 2 == 0);
    default: {
      static const char* const kStrings[] = {
          "x", "y", "a string longer than the small-string buffer"};
      return Value(kStrings[rng() % 3]);
    }
  }
}

struct Config {
  WindowSpec spec;
  // Extra non-key fields carried by every record, so key fields sit at
  // varying positions.
  std::vector<std::string> payload_fields;
};

Config RandomConfig(std::mt19937_64& rng) {
  Config c;
  switch (rng() % 3) {
    case 0:
      c.spec = WindowSpec::Tuples(1 + static_cast<int64_t>(rng() % 4),
                                  1 + static_cast<int64_t>(rng() % 5));
      break;
    case 1: {
      const Duration size = Seconds(1 + static_cast<int64_t>(rng() % 4));
      const Duration step = Seconds(1 + static_cast<int64_t>(rng() % 4));
      c.spec = WindowSpec::Time(size, step);
      const int64_t timeout_choice = static_cast<int64_t>(rng() % 3);
      c.spec.FormationTimeout(timeout_choice == 0   ? -1
                              : timeout_choice == 1 ? 0
                                                    : Millis(700));
      break;
    }
    default:
      c.spec = WindowSpec::Waves(1 + static_cast<int64_t>(rng() % 3),
                                 1 + static_cast<int64_t>(rng() % 3));
      break;
  }
  c.spec.DeleteUsedEvents(rng() % 2 == 0);
  std::vector<std::string> fields = kFieldPool;
  std::shuffle(fields.begin(), fields.end(), rng);
  const size_t n_keys = rng() % 5;
  c.spec.GroupBy(std::vector<std::string>(fields.begin(),
                                          fields.begin() + n_keys));
  c.payload_fields.assign(fields.begin() + n_keys, fields.end());
  return c;
}

// A record holding every key field (values from `key`) plus the payload
// fields and a "seq" field; field order is shuffled on a third of records.
// With `allow_missing`, one record in 64 drops a key field.
Token RandomRecord(std::mt19937_64& rng, const Config& c,
                   const std::vector<Value>& key, uint64_t seq,
                   bool allow_missing) {
  std::vector<std::pair<std::string, Value>> fields;
  for (size_t i = 0; i < key.size(); ++i) {
    fields.emplace_back(c.spec.group_by[i], key[i]);
  }
  for (const std::string& name : c.payload_fields) {
    fields.emplace_back(name, RandomValue(rng));
  }
  fields.emplace_back("seq", Value(static_cast<int64_t>(seq)));
  if (rng() % 3 == 0) {
    std::shuffle(fields.begin(), fields.end(), rng);
  }
  if (allow_missing && !key.empty() && rng() % 64 == 0) {
    fields.erase(fields.begin() + static_cast<long>(rng() % key.size()));
  }
  auto rec = std::make_shared<Record>();
  for (auto& [name, value] : fields) {
    rec->Set(name, std::move(value));
  }
  return Token(RecordPtr(std::move(rec)));
}

std::vector<Value> RandomKey(std::mt19937_64& rng, const Config& c) {
  std::vector<Value> key;
  for (size_t i = 0; i < c.spec.group_by.size(); ++i) {
    key.push_back(RandomValue(rng));
  }
  return key;
}

// Events for the tuple/time windows: mostly advancing timestamps with
// occasional stragglers.
std::vector<CWEvent> QueueStream(std::mt19937_64& rng, const Config& c,
                                 size_t n) {
  std::vector<CWEvent> events;
  int64_t now = static_cast<int64_t>(rng() % 5000) * 1000;
  for (size_t i = 0; i < n; ++i) {
    now += static_cast<int64_t>(rng() % 400) * 1000;
    CWEvent e;
    e.seq = i + 1;
    e.timestamp = Timestamp(rng() % 16 == 0 ? now - Seconds(2) : now);
    e.wave = WaveTag::Root(e.seq);
    e.last_in_wave = true;
    e.token = rng() % 128 == 0 && !c.spec.group_by.empty()
                  ? Token(static_cast<int64_t>(i))
                  : RandomRecord(rng, c, RandomKey(rng, c), e.seq,
                                 /*allow_missing=*/true);
    events.push_back(std::move(e));
  }
  return events;
}

// Events for wave windows: root singletons and sub-waves of up to 3
// children sharing one key, up to three waves interleaved, children in
// random order. A wave's first event precedes every event of a later wave,
// so no event regresses behind a consumed wave.
std::vector<CWEvent> WaveStream(std::mt19937_64& rng, const Config& c,
                                size_t n_waves) {
  struct Open {
    std::vector<CWEvent> events;
  };
  std::vector<CWEvent> events;
  std::vector<Open> open;
  uint64_t next_root = 1;
  uint64_t seq = 0;
  auto open_wave = [&] {
    const uint64_t root = next_root++;
    const std::vector<Value> key = RandomKey(rng, c);
    const uint32_t children = static_cast<uint32_t>(rng() % 4);
    Open o;
    for (uint32_t i = 1; i <= std::max<uint32_t>(children, 1); ++i) {
      CWEvent e;
      e.seq = ++seq;
      e.timestamp = Timestamp(static_cast<int64_t>(root) * 1000);
      e.wave = children == 0 ? WaveTag::Root(root)
                             : WaveTag::Root(root).Child(i);
      e.last_in_wave = children == 0 || i == children;
      // No missing fields here: a wave whose first event failed would
      // reach its group after later waves were consumed.
      e.token = RandomRecord(rng, c, key, e.seq, /*allow_missing=*/false);
      o.events.push_back(std::move(e));
    }
    std::shuffle(o.events.begin(), o.events.end(), rng);
    events.push_back(std::move(o.events.back()));
    o.events.pop_back();
    if (!o.events.empty()) {
      open.push_back(std::move(o));
    }
  };
  while (next_root <= n_waves || !open.empty()) {
    if (next_root <= n_waves && (open.size() < 3 || rng() % 2 == 0)) {
      open_wave();
      continue;
    }
    const size_t pick = rng() % open.size();
    events.push_back(std::move(open[pick].events.back()));
    open[pick].events.pop_back();
    if (open[pick].events.empty()) {
      open.erase(open.begin() + static_cast<long>(pick));
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

void ExpectSameEvents(const std::vector<CWEvent>& got,
                      const std::vector<CWEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq) << "event " << i;
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "event " << i;
    EXPECT_EQ(got[i].wave, want[i].wave) << "event " << i;
    EXPECT_TRUE(got[i].token == want[i].token) << "event " << i;
  }
}

void ExpectSameWindows(const std::vector<Window>& got,
                       const std::vector<Window>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i) + ": " + want[i].ToString());
    ExpectSameEvents(got[i].events, want[i].events);
    EXPECT_EQ(got[i].closed_by_timeout, want[i].closed_by_timeout);
    ASSERT_EQ(got[i].group_key.is_nil(), want[i].group_key.is_nil());
    if (!want[i].group_key.is_nil()) {
      EXPECT_EQ(*got[i].group_key.AsRecord(), *want[i].group_key.AsRecord());
    }
  }
}

// Lexicographic key order of the windows' key records (field by field,
// Value::operator<).
bool KeyLess(const Window& a, const Window& b) {
  const auto& fa = a.group_key.AsRecord()->values();
  const auto& fb = b.group_key.AsRecord()->values();
  return std::lexicographical_compare(fa.begin(), fa.end(), fb.begin(),
                                      fb.end());
}

void RunCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Config c = RandomConfig(rng);
  SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.spec.ToString());
  const std::vector<CWEvent> stream = c.spec.unit == WindowUnit::kWaves
                                          ? WaveStream(rng, c, 150)
                                          : QueueStream(rng, c, 300);
  WindowOperator op(c.spec);
  ReferenceOperator ref(c.spec);
  std::vector<Window> got;
  std::vector<Window> want;
  size_t windows = 0;
  // Conservation: every accepted event is consumed by a window (under
  // consumption semantics; sliding windows only copy), pending or expired.
  size_t accepted = 0;
  size_t consumed = 0;
  for (const CWEvent& e : stream) {
    if (rng() % 8 == 0) {
      // Fire every deadline up to a little past this event's time.
      const Timestamp now = e.timestamp + Millis(static_cast<int64_t>(rng() % 3000));
      ASSERT_EQ(op.NextDeadline(), ref.NextDeadline());
      op.OnTimeout(now, &got);
      ref.OnTimeout(now, &want);
    }
    const Status s_got = op.Put(e, &got);
    const Status s_want = ref.Put(e, &want);
    ASSERT_EQ(s_got.ToString(), s_want.ToString());
    ASSERT_NO_FATAL_FAILURE(ExpectSameWindows(got, want));
    windows += want.size();
    accepted += s_got.ok() ? 1 : 0;
    if (c.spec.delete_used_events) {
      for (const Window& w : got) {
        consumed += w.size();
      }
    }
    got.clear();
    want.clear();
    ASSERT_EQ(op.NextDeadline(), ref.NextDeadline());
    ASSERT_EQ(op.PendingEventCount(), ref.PendingEventCount());
    // The trivial spec's fast path creates no group.
    ASSERT_EQ(op.GroupCount(), c.spec.IsTrivial() ? 0 : ref.GroupCount());
    ASSERT_EQ(op.expired_count(), ref.expired_count());
    ASSERT_EQ(accepted,
              consumed + op.PendingEventCount() + op.expired_count());
  }
  EXPECT_EQ(op.windows_produced(), windows);
  op.Flush(&got);
  ref.Flush(&want);
  ASSERT_NO_FATAL_FAILURE(ExpectSameWindows(got, want));
  if (!c.spec.group_by.empty()) {
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), KeyLess));
  }
  EXPECT_EQ(op.PendingEventCount(), 0u);
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
  EXPECT_EQ(op.expired_count(), ref.expired_count());
}

TEST(GroupTableDifferentialTest, MatchesMapReferenceOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunCase(seed));
  }
}

TEST(GroupTableDifferentialTest, ManyGroupsGrowTheIndex) {
  // Thousands of distinct keys force repeated index growth; every key must
  // still find its own group afterwards.
  WindowSpec spec = WindowSpec::Tuples(2, 2).GroupBy({"x", "y"});
  WindowOperator op(spec);
  ReferenceOperator ref(spec);
  std::vector<Window> got;
  std::vector<Window> want;
  uint64_t seq = 0;
  for (int round = 0; round < 2; ++round) {
    for (int64_t x = 0; x < 64; ++x) {
      for (int64_t y = 0; y < 64; ++y) {
        auto rec = std::make_shared<Record>();
        rec->Set("y", Value(y)).Set("x", Value(x));
        CWEvent e;
        e.seq = ++seq;
        e.token = Token(RecordPtr(std::move(rec)));
        ASSERT_TRUE(op.Put(e, &got).ok());
        ASSERT_TRUE(ref.Put(e, &want).ok());
      }
    }
  }
  EXPECT_EQ(op.GroupCount(), 64u * 64u);
  ASSERT_NO_FATAL_FAILURE(ExpectSameWindows(got, want));
  EXPECT_EQ(got.size(), 64u * 64u);
}

TEST(GroupTableDifferentialTest, CollidingKeysStayApart) {
  // Distinct keys whose value hashes are equal land in the same index slot
  // with the same stored hash, so only the key comparison tells them
  // apart. Value::Hash mixes the type tag with std::hash, which is the
  // identity on ints here, so an int can be picked to collide with `false`.
  const Value other(false);
  const Value colliding(static_cast<int64_t>(
      other.Hash() ^ Value(int64_t{0}).Hash()));
  if (colliding.Hash() != other.Hash()) {
    GTEST_SKIP() << "std::hash<int64_t> is not the identity";
  }
  WindowSpec spec = WindowSpec::Tuples(2, 1).GroupBy({"x", "y"});
  WindowOperator op(spec);
  ReferenceOperator ref(spec);
  std::vector<Window> got;
  std::vector<Window> want;
  uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Value& y : {colliding, other}) {
      auto rec = std::make_shared<Record>();
      rec->Set("x", Value(int64_t{1})).Set("y", y);
      CWEvent e;
      e.seq = ++seq;
      e.token = Token(RecordPtr(std::move(rec)));
      ASSERT_TRUE(op.Put(e, &got).ok());
      ASSERT_TRUE(ref.Put(e, &want).ok());
    }
  }
  EXPECT_EQ(op.GroupCount(), 2u);
  ASSERT_NO_FATAL_FAILURE(ExpectSameWindows(got, want));
  got.clear();
  want.clear();
  op.Flush(&got);
  ref.Flush(&want);
  ASSERT_NO_FATAL_FAILURE(ExpectSameWindows(got, want));
}

}  // namespace
}  // namespace cwf

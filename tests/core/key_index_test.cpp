// KeyIndex against a std::map reference under random insert/erase churn:
// a small key space of mixed types (NaN included) keeps the probe clusters
// long, so backward-shift deletion and id reuse run constantly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "core/key_index.h"

namespace cwf {
namespace {

using Key = std::vector<Value>;

// Orders keys with NaN equal to NaN, as KeyIndex compares them.
struct KeyLess {
  static int Rank(const Value& v) {
    return v.is_double() && std::isnan(v.AsDouble()) ? 1 : 0;
  }
  bool operator()(const Key& a, const Key& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (Rank(a[i]) != Rank(b[i])) {
        return Rank(a[i]) < Rank(b[i]);
      }
      if (Rank(a[i]) == 0 && a[i] != b[i]) {
        return a[i] < b[i];
      }
    }
    return false;
  }
};

Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return Value(static_cast<int64_t>(rng() % 8));
    case 1:
      return Value(static_cast<double>(rng() % 4) / 2);
    case 2:
      return Value(std::numeric_limits<double>::quiet_NaN());
    default:
      return Value(rng() % 2 == 0 ? "a" : "b");
  }
}

TEST(KeyIndexTest, MatchesMapUnderInsertEraseChurn) {
  std::mt19937_64 rng(7);
  KeyIndex index(2);
  std::map<Key, uint32_t, KeyLess> ref;
  std::vector<uint32_t> freed;  // the reference free list
  uint32_t next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    const Key key{RandomValue(rng), RandomValue(rng)};
    auto key_at = [&key](size_t i) -> const Value& { return key[i]; };
    auto it = ref.find(key);
    if (rng() % 3 == 0) {
      if (it != ref.end()) {
        index.Erase(it->second);
        freed.push_back(it->second);
        ref.erase(it);
      }
    } else {
      const auto [id, inserted] = index.Insert(key_at);
      ASSERT_EQ(inserted, it == ref.end());
      if (inserted) {
        uint32_t expected = next_id;
        if (freed.empty()) {
          ++next_id;
        } else {
          expected = freed.back();  // last freed, first reused
          freed.pop_back();
        }
        ASSERT_EQ(id, expected);
        ref.emplace(key, id);
      } else {
        ASSERT_EQ(id, it->second);
      }
    }
    ASSERT_EQ(index.size(), ref.size());
    const std::optional<uint32_t> found = index.Find(key_at);
    ASSERT_EQ(found.has_value(), ref.count(key) > 0);
  }
  for (const auto& [key, id] : ref) {
    const Value* stored = index.Key(id);
    EXPECT_TRUE(KeyIndex::KeyEquals(stored[0], key[0]));
    EXPECT_TRUE(KeyIndex::KeyEquals(stored[1], key[1]));
    EXPECT_EQ(index.Find([&key](size_t i) -> const Value& { return key[i]; }),
              id);
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  const Key key{Value(1), Value(2)};
  EXPECT_EQ(index.Insert([&key](size_t i) -> const Value& { return key[i]; }),
            std::make_pair(uint32_t{0}, true));
}

}  // namespace
}  // namespace cwf

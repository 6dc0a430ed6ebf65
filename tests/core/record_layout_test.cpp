// Records bound to shared layouts: equivalence with ad-hoc Set() records,
// FieldPosition's layout-identity cache (including a freed and reallocated
// layout), ParseTokenBody's layout reuse, and concurrent readers of one
// layout.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/record.h"
#include "core/schema.h"
#include "core/token.h"
#include "stream/trace.h"

namespace cwf {
namespace {

TEST(RecordLayoutTest, LayoutBuiltRecordMatchesSetBuiltRecord) {
  const RecordLayoutPtr layout =
      RecordLayout::Make({"car", "speed", "tag", "ok", "none"});
  const RecordPtr built =
      BuildRecord(layout, int64_t{7}, 55.25, "a;b=c", true, Value());
  Record set;
  set.Set("car", int64_t{7})
      .Set("speed", 55.25)
      .Set("tag", "a;b=c")
      .Set("ok", true)
      .Set("none", Value());
  EXPECT_NE(built->layout(), set.layout());
  EXPECT_EQ(*built, set);
  EXPECT_EQ(built->ToString(), set.ToString());

  const Token built_token(built);
  const std::string body = SerializeTokenBody(built_token);
  EXPECT_EQ(body, SerializeTokenBody(Token(std::make_shared<Record>(set))));
  auto parsed = ParseTokenBody(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed.value().AsRecord(), *built);
  EXPECT_EQ(parsed.value(), built_token);
}

TEST(RecordLayoutTest, FieldOrderIsPartOfEquality) {
  Record ab;
  ab.Set("a", 1).Set("b", 2);
  Record ba;
  ba.Set("b", 2).Set("a", 1);
  EXPECT_FALSE(ab == ba);
}

TEST(RecordLayoutTest, LookupBeyondTheLinearScanUsesTheIndex) {
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    names.push_back("f" + std::to_string(i));
  }
  const RecordLayoutPtr layout = RecordLayout::Make(names);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(layout->IndexOf("f" + std::to_string(i)), i);
  }
  EXPECT_EQ(layout->IndexOf("f40"), -1);
  // Growing field by field keeps the index consistent.
  Record rec;
  for (int i = 0; i < 40; ++i) {
    rec.Set(names[static_cast<size_t>(i)], i);
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(rec.Get(names[static_cast<size_t>(i)]).value().AsInt(), i);
  }
}

TEST(RecordLayoutTest, SetNeverChangesASharedLayout) {
  const RecordLayoutPtr layout = RecordLayout::Make({"a", "b"});
  Record rec(layout, {Value(1), Value(2)});
  rec.Set("b", 3);  // existing field: same layout
  EXPECT_EQ(rec.layout(), layout);
  rec.Set("c", 4);  // new field: a layout of its own
  EXPECT_NE(rec.layout(), layout);
  EXPECT_EQ(layout->size(), 2u);
  EXPECT_EQ(rec.ToString(), "{a=1, b=3, c=4}");
}

TEST(RecordLayoutTest, SchemaLayoutIsCopiedOnWriteAfterHandOut) {
  RecordSchema schema;
  schema.Int("a").Double("b");
  const RecordLayoutPtr handed_out = schema.layout();
  const RecordPtr rec = BuildRecord(handed_out, int64_t{1}, 2.0);
  EXPECT_TRUE(TokenType::Record(schema).CheckToken(Token(rec)).ok());
  schema.Int("c");
  EXPECT_NE(schema.layout(), handed_out);
  EXPECT_EQ(handed_out->size(), 2u);
  EXPECT_EQ(schema.IndexOf("c"), 2);
}

TEST(RecordLayoutTest, FieldPositionFollowsAlternatingLayouts) {
  const RecordLayoutPtr xy = RecordLayout::Make({"x", "y"});
  const RecordLayoutPtr yx = RecordLayout::Make({"y", "x"});
  const RecordLayoutPtr only_y = RecordLayout::Make({"y"});
  FieldPosition x("x");
  for (int i = 0; i < 10; ++i) {
    const RecordPtr a = BuildRecord(xy, i, -i);
    const RecordPtr b = BuildRecord(yx, -i, i + 100);
    const RecordPtr c = BuildRecord(only_y, i);
    ASSERT_NE(x.Find(*a), nullptr);
    EXPECT_EQ(x.Find(*a)->AsInt(), i);
    EXPECT_EQ(x.Find(*b)->AsInt(), i + 100);
    EXPECT_EQ(x.Find(*c), nullptr);
    EXPECT_EQ(x.Find(Record()), nullptr);
    EXPECT_EQ(x.GetOr(*c, Value(-1)).AsInt(), -1);
  }
}

TEST(RecordLayoutTest, FreedLayoutAddressIsNeverTrusted) {
  // Each round builds a fresh layout, alternating the field order, and
  // drops it (and its record) after the read. Were the cache keyed on a
  // bare address, the allocator would hand the freed layout's address to
  // the next layout of the other order and the cached position would read
  // the wrong field.
  FieldPosition b("b");
  for (int i = 0; i < 200; ++i) {
    const bool ab = i % 2 == 0;
    RecordPtr rec = ab ? BuildRecord(RecordLayout::Make({"a", "b"}), 1, i)
                       : BuildRecord(RecordLayout::Make({"b", "a"}), i, 1);
    ASSERT_EQ(b.Find(*rec)->AsInt(), i) << "round " << i;
  }
  // The cache keeps its layout alive until it moves to another.
  std::weak_ptr<const RecordLayout> cached;
  {
    const RecordPtr rec = BuildRecord(RecordLayout::Make({"b"}), 5);
    cached = rec->layout();
    EXPECT_EQ(b.Find(*rec)->AsInt(), 5);
  }
  EXPECT_FALSE(cached.expired());
  const RecordPtr other = BuildRecord(RecordLayout::Make({"a", "b"}), 0, 6);
  EXPECT_EQ(b.Find(*other)->AsInt(), 6);
  EXPECT_TRUE(cached.expired());
}

TEST(RecordLayoutTest, ParseSharesOneLayoutAcrossSameShapedBodies) {
  const Token first = ParseTokenBody("time=i:1;car=i:7;speed=d:5.5").value();
  const Token second = ParseTokenBody("time=i:2;car=i:8;speed=d:6").value();
  EXPECT_EQ(first.AsRecord()->layout(), second.AsRecord()->layout());
  EXPECT_EQ(second.Field("car").AsInt(), 8);

  // Another order, a prefix and an extension each get their own layout.
  const Token swapped = ParseTokenBody("car=i:9;time=i:3").value();
  EXPECT_NE(swapped.AsRecord()->layout(), first.AsRecord()->layout());
  EXPECT_EQ(swapped.AsRecord()->NameAt(0), "car");
  const Token prefix = ParseTokenBody("car=i:1").value();
  EXPECT_EQ(prefix.AsRecord()->size(), 1u);
  EXPECT_EQ(prefix.AsRecord()->layout()->size(), 1u);
  const Token longer = ParseTokenBody("car=i:1;lane=i:2").value();
  EXPECT_EQ(longer.AsRecord()->ToString(), "{car=1, lane=2}");
  EXPECT_EQ(prefix.AsRecord()->ToString(), "{car=1}");
}

TEST(RecordLayoutTest, ParseRepeatedFieldReplacesTheEarlierValue) {
  for (int round = 0; round < 2; ++round) {  // cold and warm layout cache
    const Token tok = ParseTokenBody("a=i:1;b=i:2;a=i:3").value();
    EXPECT_EQ(tok.AsRecord()->ToString(), "{a=3, b=2}");
  }
  const Token seeded = ParseTokenBody("a=i:1;b=i:2").value();
  const Token repeat = ParseTokenBody("a=i:4;a=i:5").value();
  EXPECT_EQ(repeat.AsRecord()->ToString(), "{a=5}");
  EXPECT_EQ(seeded.AsRecord()->ToString(), "{a=1, b=2}");
}

TEST(RecordLayoutTest, ParseUnescapesFieldNames) {
  const Token tok = ParseTokenBody("a\\=b=i:1;c\\;d=s:x\\;y").value();
  EXPECT_EQ(tok.AsRecord()->NameAt(0), "a=b");
  EXPECT_EQ(tok.Field("c;d").AsString(), "x;y");
}

TEST(RecordLayoutTest, ConcurrentReadersOfOneSharedLayout) {
  // PNCWF shape: actor threads read records of one layout through their
  // own FieldPosition and build new records from it at the same time; the
  // layout itself is shared read-only.
  const RecordLayoutPtr layout = RecordLayout::Make({"k", "v"});
  constexpr int kRecords = 2000;
  std::vector<RecordPtr> records(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    records[static_cast<size_t>(i)] = BuildRecord(layout, i % 7, i);
  }
  std::atomic<int64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      FieldPosition v("v");
      FieldPosition k("k");
      int64_t sum = 0;
      for (const RecordPtr& rec : records) {
        sum += v.Get(*rec).AsInt() + k.Get(*rec).AsInt();
        const RecordPtr copy = BuildRecord(layout, 0, v.Get(*rec));
        sum -= copy->ValueAt(1).AsInt();
      }
      total.fetch_add(sum);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  int64_t want = 0;
  for (int i = 0; i < kRecords; ++i) {
    want += i % 7;
  }
  EXPECT_EQ(total.load(), 3 * want);
}

}  // namespace
}  // namespace cwf

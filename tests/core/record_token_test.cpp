#include <gtest/gtest.h>

#include "core/token.h"
#include "test_util.h"

namespace cwf {
namespace {

using testutil::Rec;

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{4}).is_int());
  EXPECT_TRUE(Value(4).is_int());
  EXPECT_TRUE(Value(4.5).is_double());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);  // int widens
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("hey").AsString(), "hey");
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH(Value("s").AsInt(), "not an int");
  EXPECT_DEATH(Value(true).AsDouble(), "not numeric");
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(), Value(0));           // null sorts first (type index)
  EXPECT_LT(Value(5), Value(1.0));        // int type before double type
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, EqualityAndHashConsistency) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(4));
  EXPECT_NE(Value(3), Value(3.0));  // different types
  EXPECT_EQ(Value(3).Hash(), Value(3).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("q").ToString(), "\"q\"");
}

TEST(RecordTest, SetAndGet) {
  Record r;
  r.Set("a", 1).Set("b", 2.5);
  EXPECT_TRUE(r.Has("a"));
  EXPECT_FALSE(r.Has("z"));
  EXPECT_EQ(r.Get("a").value().AsInt(), 1);
  EXPECT_FALSE(r.Get("z").ok());
  EXPECT_EQ(r.GetOr("z", Value(9)).AsInt(), 9);
  EXPECT_EQ(r.size(), 2u);
}

TEST(RecordTest, SetOverwritesInPlace) {
  Record r;
  r.Set("a", 1).Set("b", 2).Set("a", 3);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.Get("a").value().AsInt(), 3);
  // Field order preserved.
  EXPECT_EQ(r.NameAt(0), "a");
  EXPECT_EQ(r.NameAt(1), "b");
}

TEST(RecordTest, EqualityIsFieldwise) {
  Record a, b;
  a.Set("x", 1);
  b.Set("x", 1);
  EXPECT_EQ(a, b);
  b.Set("x", 2);
  EXPECT_FALSE(a == b);
}

TEST(RecordTest, IndexOfTriesTheHintThenScans) {
  Record r;
  r.Set("a", 1).Set("b", 2).Set("c", 3);
  EXPECT_EQ(r.IndexOf("b", 1), 1);
  EXPECT_EQ(r.IndexOf("b", 0), 1);   // wrong hint: found by scan
  EXPECT_EQ(r.IndexOf("c", 99), 2);  // out-of-range hint
  EXPECT_EQ(r.IndexOf("z", 0), -1);
}

TEST(FieldPositionTest, FollowsLayoutChanges) {
  FieldPosition car("car");
  Record ab;
  ab.Set("time", 1).Set("car", 7);
  Record ba;
  ba.Set("car", 8).Set("time", 2);
  Record none;
  none.Set("time", 3);
  ASSERT_NE(car.Find(ab), nullptr);
  EXPECT_EQ(car.Find(ab)->AsInt(), 7);
  EXPECT_EQ(car.Find(ba)->AsInt(), 8);
  EXPECT_EQ(car.Find(ab)->AsInt(), 7);
  EXPECT_EQ(car.Find(none), nullptr);
  EXPECT_EQ(car.name(), "car");
}

TEST(RecordTest, ToString) {
  Record r;
  r.Set("a", 1).Set("b", "z");
  EXPECT_EQ(r.ToString(), "{a=1, b=\"z\"}");
}

TEST(TokenTest, NilDefault) {
  Token t;
  EXPECT_TRUE(t.is_nil());
  EXPECT_EQ(t.ToString(), "nil");
}

TEST(TokenTest, ScalarRoundTrips) {
  EXPECT_EQ(Token(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Token(1.25).AsDouble(), 1.25);
  EXPECT_DOUBLE_EQ(Token(5).AsDouble(), 5.0);
  EXPECT_TRUE(Token(true).AsBool());
  EXPECT_EQ(Token("str").AsString(), "str");
}

TEST(TokenTest, RecordFieldShortcut) {
  Token t = Rec({{"car", 42}, {"speed", 55.0}});
  EXPECT_TRUE(t.is_record());
  EXPECT_EQ(t.Field("car").AsInt(), 42);
  EXPECT_DOUBLE_EQ(t.Field("speed").AsDouble(), 55.0);
}

TEST(TokenDeathTest, MissingFieldAborts) {
  Token t = Rec({{"a", 1}});
  EXPECT_DEATH(t.Field("b"), "lacks field");
  EXPECT_DEATH(Token(5).Field("a"), "not a record");
}

TEST(TokenTest, RecordEqualityIsStructural) {
  Token a = Rec({{"x", 1}});
  Token b = Rec({{"x", 1}});
  Token c = Rec({{"x", 2}});
  EXPECT_EQ(a, b);  // different shared_ptrs, equal contents
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == Token(1));
}

TEST(TokenTest, RecordsAreShared) {
  Token a = Rec({{"x", 1}});
  Token b = a;  // copy shares the record
  EXPECT_EQ(a.AsRecord().get(), b.AsRecord().get());
}

TEST(MakeRecordTest, BuildsSharedRecord) {
  RecordPtr r = MakeRecord(std::pair<std::string, Value>{"a", 1},
                           std::pair<std::string, Value>{"b", 2});
  EXPECT_EQ(r->Get("b").value().AsInt(), 2);
}

}  // namespace
}  // namespace cwf

#include <gtest/gtest.h>

#include "db/query.h"
#include "db/table.h"

namespace cwf::db {
namespace {

Schema S() {
  return Schema({{"a", ColumnType::kInt64},
                 {"b", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
}

Row R(int64_t a, double b, std::string s) {
  return {Value(a), Value(b), Value(std::move(s))};
}

bool Match(const PredicatePtr& p, const Row& row) {
  Schema schema = S();
  CWF_CHECK(p->Bind(schema).ok());
  return p->Matches(row);
}

TEST(PredicateTest, ComparisonOperators) {
  EXPECT_TRUE(Match(Eq("a", Value(5)), R(5, 0, "")));
  EXPECT_FALSE(Match(Eq("a", Value(5)), R(6, 0, "")));
  EXPECT_TRUE(Match(Ne("a", Value(5)), R(6, 0, "")));
  EXPECT_TRUE(Match(Lt("a", Value(5)), R(4, 0, "")));
  EXPECT_FALSE(Match(Lt("a", Value(5)), R(5, 0, "")));
  EXPECT_TRUE(Match(Le("a", Value(5)), R(5, 0, "")));
  EXPECT_TRUE(Match(Gt("a", Value(5)), R(6, 0, "")));
  EXPECT_TRUE(Match(Ge("a", Value(5)), R(5, 0, "")));
}

TEST(PredicateTest, NumericComparisonAcrossIntAndDouble) {
  // int column compared against double constant and vice versa.
  EXPECT_TRUE(Match(Lt("a", Value(5.5)), R(5, 0, "")));
  EXPECT_TRUE(Match(Gt("b", Value(1)), R(0, 1.5, "")));
  EXPECT_TRUE(Match(Eq("b", Value(2)), R(0, 2.0, "")));
}

TEST(PredicateTest, StringComparison) {
  EXPECT_TRUE(Match(Eq("s", Value("abc")), R(0, 0, "abc")));
  EXPECT_TRUE(Match(Lt("s", Value("b")), R(0, 0, "a")));
  EXPECT_FALSE(Match(Lt("s", Value("a")), R(0, 0, "b")));
}

TEST(PredicateTest, NullNeverMatchesComparisons) {
  Schema schema = S();
  auto p = Eq("a", Value(1));
  ASSERT_TRUE(p->Bind(schema).ok());
  Row null_row = {Value(), Value(), Value()};
  EXPECT_FALSE(p->Matches(null_row));
  auto ne = Ne("a", Value(1));
  ASSERT_TRUE(ne->Bind(schema).ok());
  EXPECT_FALSE(ne->Matches(null_row));  // SQL-style
}

TEST(PredicateTest, BetweenIsInclusive) {
  EXPECT_TRUE(Match(Between("a", Value(2), Value(4)), R(2, 0, "")));
  EXPECT_TRUE(Match(Between("a", Value(2), Value(4)), R(4, 0, "")));
  EXPECT_FALSE(Match(Between("a", Value(2), Value(4)), R(5, 0, "")));
}

TEST(PredicateTest, BooleanCombinators) {
  auto p = And(Gt("a", Value(0)), Lt("a", Value(10)));
  EXPECT_TRUE(Match(p, R(5, 0, "")));
  EXPECT_FALSE(Match(p, R(10, 0, "")));
  auto q = Or(Eq("a", Value(1)), Eq("a", Value(2)));
  EXPECT_TRUE(Match(q, R(2, 0, "")));
  EXPECT_FALSE(Match(q, R(3, 0, "")));
  EXPECT_TRUE(Match(Not(Eq("a", Value(1))), R(2, 0, "")));
  EXPECT_TRUE(Match(True(), R(0, 0, "")));
}

TEST(PredicateTest, NestedCombination) {
  // (a >= 10 AND a <= 20) OR (s = "vip")
  auto p = Or(And(Ge("a", Value(10)), Le("a", Value(20))),
              Eq("s", Value("vip")));
  EXPECT_TRUE(Match(p, R(15, 0, "x")));
  EXPECT_TRUE(Match(p, R(0, 0, "vip")));
  EXPECT_FALSE(Match(p, R(0, 0, "x")));
}

TEST(PredicateTest, BindRejectsUnknownColumn) {
  Schema schema = S();
  EXPECT_FALSE(Eq("zzz", Value(1))->Bind(schema).ok());
  EXPECT_FALSE(And(Eq("a", Value(1)), Eq("zzz", Value(1)))->Bind(schema).ok());
}

TEST(PredicateTest, OnlyConjunctionEqualitiesPickAnIndex) {
  Table t("t", S());
  ASSERT_TRUE(t.CreateIndex("by_a_s", {"a", "s"}).ok());
  // Equalities inside (nested) conjunctions pin the index columns.
  auto pinned = t.Prepare(And(
      {Eq("a", Value(1)), And(Eq("s", Value("x")), Gt("b", Value(0)))}));
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(pinned.value().uses_index());
  // A parameter slot pins as well as a constant.
  auto param = t.Prepare(And(Eq("a", Param(0)), Eq("s", Param(1))));
  ASSERT_TRUE(param.ok());
  EXPECT_TRUE(param.value().uses_index());
  EXPECT_EQ(param.value().param_count(), 2u);
  // OR does not pin (a disjunct may not hold), nor does one column alone.
  EXPECT_FALSE(t.Prepare(Or(And(Eq("a", Value(1)), Eq("s", Value("x"))),
                            Eq("a", Value(2))))
                   .value()
                   .uses_index());
  EXPECT_FALSE(t.Prepare(Eq("a", Value(1))).value().uses_index());
  EXPECT_FALSE(t.Prepare(And(Eq("a", Value(1)), Ge("s", Value("x"))))
                   .value()
                   .uses_index());
}

TEST(PredicateTest, ToStringIsReadable) {
  auto p = And(Eq("a", Value(1)), Not(Lt("b", Value(2.0))));
  const std::string str = p->ToString();
  EXPECT_NE(str.find("a = 1"), std::string::npos);
  EXPECT_NE(str.find("NOT"), std::string::npos);
  EXPECT_NE(str.find("AND"), std::string::npos);
}

TEST(PredicateDeathTest, MatchBeforeBindAborts) {
  auto p = Eq("a", Value(1));
  Row row = R(1, 0, "");
  EXPECT_DEATH(p->Matches(row), "before Bind");
}

}  // namespace
}  // namespace cwf::db

#include <gtest/gtest.h>

#include "window/window_spec.h"

namespace cwf {
namespace {

TEST(WindowSpecTest, SingleEventIsTrivial) {
  WindowSpec s = WindowSpec::SingleEvent();
  EXPECT_TRUE(s.IsTrivial());
  EXPECT_EQ(s.unit, WindowUnit::kTuples);
  EXPECT_EQ(s.size, 1);
  EXPECT_EQ(s.step, 1);
  EXPECT_TRUE(s.delete_used_events);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(WindowSpecTest, FactoriesSetUnits) {
  EXPECT_EQ(WindowSpec::Tuples(4, 1).unit, WindowUnit::kTuples);
  EXPECT_EQ(WindowSpec::Time(Seconds(60), Seconds(60)).unit,
            WindowUnit::kTime);
  EXPECT_EQ(WindowSpec::Waves().unit, WindowUnit::kWaves);
}

TEST(WindowSpecTest, BuilderChains) {
  WindowSpec s = WindowSpec::Tuples(4, 2)
                     .GroupBy({"car"})
                     .DeleteUsedEvents(true);
  EXPECT_EQ(s.size, 4);
  EXPECT_EQ(s.step, 2);
  EXPECT_EQ(s.group_by, std::vector<std::string>{"car"});
  EXPECT_TRUE(s.delete_used_events);
  EXPECT_FALSE(s.IsTrivial());
}

TEST(WindowSpecTest, ConsumptionModeDerivation) {
  EXPECT_EQ(WindowSpec::Tuples(4, 1).consumption_mode(),
            ConsumptionMode::kContinuous);
  EXPECT_EQ(WindowSpec::Tuples(4, 4).consumption_mode(),
            ConsumptionMode::kUnrestricted);
  EXPECT_EQ(WindowSpec::Tuples(4, 1).DeleteUsedEvents(true).consumption_mode(),
            ConsumptionMode::kRecent);
}

TEST(WindowSpecTest, ValidationRejectsNonPositive) {
  EXPECT_FALSE(WindowSpec::Tuples(0, 1).Validate().ok());
  EXPECT_FALSE(WindowSpec::Tuples(1, 0).Validate().ok());
  EXPECT_FALSE(WindowSpec::Tuples(-3, 1).Validate().ok());
  EXPECT_TRUE(WindowSpec::Tuples(1, 5).Validate().ok());  // step > size legal
}

TEST(WindowSpecTest, ValidationRejectsTimeoutOnNonTimeWindows) {
  WindowSpec s = WindowSpec::Tuples(2, 1);
  s.formation_timeout = 100;
  EXPECT_FALSE(s.Validate().ok());
  WindowSpec t = WindowSpec::Time(Seconds(1), Seconds(1)).FormationTimeout(100);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(WindowSpecTest, ValidationRejectsEmptyGroupByField) {
  WindowSpec s = WindowSpec::Tuples(2, 1).GroupBy({"a", ""});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(WindowSpecTest, ValidationRejectsRepeatedGroupByField) {
  // The key token is a record, which holds each field name once.
  WindowSpec s = WindowSpec::Tuples(2, 1).GroupBy({"a", "b", "a"});
  const Status st = s.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("repeated group-by field 'a'"),
            std::string::npos);
  EXPECT_TRUE(WindowSpec::Tuples(2, 1).GroupBy({"a", "b"}).Validate().ok());
}

TEST(WindowSpecTest, ToStringMentionsKeyParameters) {
  const std::string str =
      WindowSpec::Time(Seconds(60), Seconds(30)).GroupBy({"seg"}).ToString();
  EXPECT_NE(str.find("time"), std::string::npos);
  EXPECT_NE(str.find("seg"), std::string::npos);
}

TEST(WindowUnitNameTest, Names) {
  EXPECT_STREQ(WindowUnitName(WindowUnit::kTuples), "tuples");
  EXPECT_STREQ(WindowUnitName(WindowUnit::kTime), "time");
  EXPECT_STREQ(WindowUnitName(WindowUnit::kWaves), "waves");
}

}  // namespace
}  // namespace cwf

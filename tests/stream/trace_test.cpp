#include <gtest/gtest.h>

#include <cstdio>

#include <fstream>
#include <cstdio>

#include "stream/trace.h"
#include "test_util.h"

namespace cwf {
namespace {

using testutil::Rec;

TEST(TraceTest, AddAndQuery) {
  Trace t;
  EXPECT_TRUE(t.empty());
  t.Add(Timestamp::Seconds(2), Token(2));
  t.Add(Timestamp::Seconds(1), Token(1));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.EndTime(), Timestamp::Seconds(1));  // last appended
  t.Sort();
  EXPECT_EQ(t[0].token.AsInt(), 1);
  EXPECT_EQ(t.EndTime(), Timestamp::Seconds(2));
}

TEST(TraceTest, SortIsStable) {
  Trace t;
  t.Add(Timestamp::Seconds(1), Token(1));
  t.Add(Timestamp::Seconds(1), Token(2));
  t.Add(Timestamp::Seconds(1), Token(3));
  t.Sort();
  EXPECT_EQ(t[0].token.AsInt(), 1);
  EXPECT_EQ(t[1].token.AsInt(), 2);
  EXPECT_EQ(t[2].token.AsInt(), 3);
}

TEST(TraceTest, CountInRangeHalfOpen) {
  Trace t;
  for (int i = 0; i < 10; ++i) {
    t.Add(Timestamp::Seconds(i), Token(i));
  }
  EXPECT_EQ(t.CountInRange(Timestamp::Seconds(2), Timestamp::Seconds(5)), 3u);
  EXPECT_EQ(t.CountInRange(Timestamp::Seconds(0), Timestamp::Seconds(10)),
            10u);
  EXPECT_EQ(t.CountInRange(Timestamp::Seconds(5), Timestamp::Seconds(5)), 0u);
}

TEST(TraceTest, SaveLoadRoundTripRecords) {
  Trace t;
  t.Add(Timestamp::Seconds(1),
        Rec({{"car", 7}, {"speed", 55.25}, {"name", "a;b=c\\d"},
             {"ok", true}, {"nothing", Value()}}));
  t.Add(Timestamp::Seconds(2), Rec({{"car", 8}}));
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.tsv";
  ASSERT_TRUE(t.SaveToFile(path).ok());
  auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].arrival, Timestamp::Seconds(1));
  const Token& tok = (*loaded)[0].token;
  EXPECT_EQ(tok.Field("car").AsInt(), 7);
  EXPECT_DOUBLE_EQ(tok.Field("speed").AsDouble(), 55.25);
  EXPECT_EQ(tok.Field("name").AsString(), "a;b=c\\d");
  EXPECT_TRUE(tok.Field("ok").AsBool());
  EXPECT_TRUE(tok.Field("nothing").is_null());
  std::remove(path.c_str());
}

TEST(TraceTest, SaveLoadScalarTokens) {
  Trace t;
  t.Add(Timestamp::Seconds(1), Token(42));
  const std::string path = ::testing::TempDir() + "/trace_scalar.tsv";
  ASSERT_TRUE(t.SaveToFile(path).ok());
  auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  // Scalars round-trip as single-field records.
  EXPECT_EQ((*loaded)[0].token.Field("value").AsInt(), 42);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadMissingFileFails) {
  EXPECT_EQ(Trace::LoadFromFile("/nonexistent/xyz.tsv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cwf

namespace cwf {
namespace {

TEST(TraceTest, LoadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/bad_trace.tsv";
  {
    std::ofstream out(path);
    out << "notanumber_no_tab\n";
  }
  EXPECT_FALSE(Trace::LoadFromFile(path).ok());
  {
    std::ofstream out(path);
    out << "100\tfield_without_equals\n";
  }
  EXPECT_FALSE(Trace::LoadFromFile(path).ok());
  {
    std::ofstream out(path);
    out << "100\tv=q:bogus_tag\n";
  }
  EXPECT_FALSE(Trace::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(TraceTest, MalformedNumbersAreInvalidArgument) {
  // Each of these once escaped ParseTokenBody as a C++ exception (or, for
  // "12abc", parsed as 12).
  for (const char* body : {"x=i:abc", "x=d:zz", "x=i:99999999999999999999",
                           "x=i:12abc", "x=i:", "x=d:1.5x"}) {
    SCOPED_TRACE(body);
    EXPECT_EQ(ParseTokenBody(body).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ParseTokenBody("x=i:-12").value().Field("x").AsInt(), -12);
  EXPECT_DOUBLE_EQ(ParseTokenBody("x=d:2.5e3").value().Field("x").AsDouble(),
                   2500.0);
}

TEST(TraceTest, LoadRejectsMalformedArrival) {
  const std::string path = ::testing::TempDir() + "/bad_arrival.tsv";
  for (const char* line :
       {"12x\tv=i:1\n", "99999999999999999999\tv=i:1\n"}) {
    {
      std::ofstream out(path);
      out << line;
    }
    EXPECT_EQ(Trace::LoadFromFile(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyFileLoadsEmptyTrace) {
  const std::string path = ::testing::TempDir() + "/empty_trace.tsv";
  { std::ofstream out(path); }
  auto t = Trace::LoadFromFile(path);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cwf

#include <gtest/gtest.h>

#include "lrb/generator.h"

namespace cwf::lrb {
namespace {

GeneratorOptions ShortRun() {
  GeneratorOptions o;
  o.duration = Seconds(120);
  return o;
}

TEST(GeneratorTest, DeterministicPerSeed) {
  Generator g1(ShortRun()), g2(ShortRun());
  Trace t1 = g1.Generate();
  Trace t2 = g2.Generate();
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); i += 97) {
    EXPECT_EQ(t1[i].arrival, t2[i].arrival);
    EXPECT_EQ(t1[i].token, t2[i].token);
  }
  GeneratorOptions other = ShortRun();
  other.seed = 43;
  Generator g3(other);
  EXPECT_NE(g3.Generate().size(), 0u);
}

TEST(GeneratorTest, TraceIsSortedByArrival) {
  Generator g(ShortRun());
  Trace t = g.Generate();
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i - 1].arrival, t[i].arrival);
  }
}

TEST(GeneratorTest, RateRampMatchesFigure5) {
  GeneratorOptions o;  // full 600 s
  Generator g(o);
  Trace t = g.Generate();
  // Target rate formula endpoints.
  EXPECT_NEAR(g.TargetRate(0), 20.0, 1e-9);
  EXPECT_NEAR(g.TargetRate(440), 20.0 + 0.32 * 440, 1e-9);
  EXPECT_NEAR(g.TargetRate(10000), 200.0, 1e-9);  // capped
  // Achieved rates track the ramp (reports/sec over 30 s spans).
  const double early =
      t.CountInRange(Timestamp::Seconds(60), Timestamp::Seconds(90)) / 30.0;
  const double late =
      t.CountInRange(Timestamp::Seconds(500), Timestamp::Seconds(530)) / 30.0;
  EXPECT_NEAR(early, g.TargetRate(75), g.TargetRate(75) * 0.35);
  EXPECT_NEAR(late, g.TargetRate(515), g.TargetRate(515) * 0.35);
  EXPECT_GT(late, early * 2);
}

TEST(GeneratorTest, ReportsAreValidPositionReports) {
  Generator g(ShortRun());
  Trace t = g.Generate();
  ASSERT_GT(t.size(), 100u);
  for (size_t i = 0; i < t.size(); i += 53) {
    const PositionReport r = PositionReport::FromToken(t[i].token);
    EXPECT_GE(r.seg, 0);
    EXPECT_LT(r.seg, kSegmentsPerXway);
    EXPECT_EQ(r.seg, r.pos / kFeetPerSegment);
    EXPECT_GE(r.speed, 0.0);
    EXPECT_LE(r.speed, 100.0);
    EXPECT_GE(r.lane, 1);
    EXPECT_LE(r.lane, 3);
    EXPECT_EQ(r.xway, 0);  // L = 0.5: one expressway
    EXPECT_EQ(r.dir, 0);   // one direction
  }
}

TEST(GeneratorTest, CarsReportEveryThirtySeconds) {
  Generator g(ShortRun());
  Trace t = g.Generate();
  // Pick one car and check its report spacing.
  const int64_t car = PositionReport::FromToken(t[0].token).car;
  std::vector<int64_t> times;
  for (size_t i = 0; i < t.size(); ++i) {
    const PositionReport r = PositionReport::FromToken(t[i].token);
    if (r.car == car) {
      times.push_back(r.time);
    }
  }
  ASSERT_GE(times.size(), 2u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], kReportIntervalSeconds);
  }
}

TEST(GeneratorTest, AccidentsProduceStoppedPairs) {
  GeneratorOptions o;
  o.duration = Seconds(300);
  o.mean_accident_gap = 30.0;  // force several accidents
  Generator g(o);
  Trace t = g.Generate();
  ASSERT_GT(g.report().accidents_injected, 0u);
  // Find a position reported with speed 0 by two different cars.
  std::map<std::pair<int64_t, int64_t>, std::set<int64_t>> stopped_at;
  for (size_t i = 0; i < t.size(); ++i) {
    const PositionReport r = PositionReport::FromToken(t[i].token);
    if (r.speed == 0.0) {
      stopped_at[{r.pos, r.lane}].insert(r.car);
    }
  }
  bool pair_found = false;
  for (const auto& [pos, cars] : stopped_at) {
    if (cars.size() >= 2) {
      pair_found = true;
      break;
    }
  }
  EXPECT_TRUE(pair_found);
}

TEST(GeneratorTest, AccidentCarsEmitFourIdenticalReports) {
  GeneratorOptions o;
  o.duration = Seconds(300);
  o.mean_accident_gap = 30.0;
  Generator g(o);
  Trace t = g.Generate();
  // Group reports per car; look for >= kStoppedReportCount consecutive
  // identical positions.
  std::map<int64_t, std::vector<int64_t>> car_positions;
  for (size_t i = 0; i < t.size(); ++i) {
    const PositionReport r = PositionReport::FromToken(t[i].token);
    car_positions[r.car].push_back(r.pos);
  }
  bool found = false;
  for (const auto& [car, positions] : car_positions) {
    int run = 1;
    for (size_t i = 1; i < positions.size(); ++i) {
      run = positions[i] == positions[i - 1] ? run + 1 : 1;
      if (run >= kStoppedReportCount) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(TollFormulaTest, MatchesPaperSql) {
  // 2*(cars-50)^2 when lav<40, cars>50, no accident.
  EXPECT_DOUBLE_EQ(ComputeToll(39.0, 60, false), 2 * 10 * 10);
  EXPECT_DOUBLE_EQ(ComputeToll(40.0, 60, false), 0.0);  // lav not < 40
  EXPECT_DOUBLE_EQ(ComputeToll(39.0, 50, false), 0.0);  // cars not > 50
  EXPECT_DOUBLE_EQ(ComputeToll(39.0, 60, true), 0.0);   // accident waives
}

TEST(PositionReportTest, TokenRoundTrip) {
  PositionReport r{120, 77, 55.5, 0, 2, 0, 12, 12 * 5280 + 100};
  const PositionReport back = PositionReport::FromToken(r.ToToken());
  EXPECT_EQ(back.time, 120);
  EXPECT_EQ(back.car, 77);
  EXPECT_DOUBLE_EQ(back.speed, 55.5);
  EXPECT_EQ(back.seg, 12);
  EXPECT_EQ(back.pos, 12 * 5280 + 100);
  EXPECT_NE(r.ToString().find("car=77"), std::string::npos);
}

TEST(PositionReportTest, FromTokenAcceptsAnyFieldOrder) {
  // The decoder checks each field at its ToToken() position first; a
  // record built in another order must decode the same by name.
  auto rec = std::make_shared<Record>();
  rec->Set(kFieldPos, Value(int64_t{900}))
      .Set(kFieldSeg, Value(int64_t{3}))
      .Set(kFieldDir, Value(int64_t{1}))
      .Set(kFieldLane, Value(int64_t{4}))
      .Set(kFieldXway, Value(int64_t{2}))
      .Set(kFieldSpeed, Value(41.5))
      .Set(kFieldCar, Value(int64_t{8}))
      .Set(kFieldTime, Value(int64_t{60}));
  const PositionReport r = PositionReport::FromToken(Token(RecordPtr(rec)));
  EXPECT_EQ(r.time, 60);
  EXPECT_EQ(r.car, 8);
  EXPECT_DOUBLE_EQ(r.speed, 41.5);
  EXPECT_EQ(r.xway, 2);
  EXPECT_EQ(r.lane, 4);
  EXPECT_EQ(r.dir, 1);
  EXPECT_EQ(r.seg, 3);
  EXPECT_EQ(r.pos, 900);
}

TEST(PositionReportDeathTest, FromTokenMissingFieldAborts) {
  auto rec = std::make_shared<Record>();
  rec->Set(kFieldTime, Value(int64_t{1}));
  EXPECT_DEATH(PositionReport::FromToken(Token(RecordPtr(rec))),
               "lacks field car");
}

}  // namespace
}  // namespace cwf::lrb

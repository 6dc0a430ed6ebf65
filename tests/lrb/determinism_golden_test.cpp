// Determinism golden: the simulated outputs of one fixed-seed Linear Road
// run per execution model, hierarchical (inner DDF composite) and flat,
// checked exactly, plus the Figure 6, 7 and 8 configurations over the
// paper's full 600 s ramp. Any refactor of the directors, schedulers or receivers
// must leave every figure below unchanged; a legitimate behavior change
// re-records the table (the failure message prints the new row).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "lrb/harness.h"

namespace cwf::lrb {
namespace {

struct Golden {
  SchedulerKind kind;
  bool hierarchical;
  uint64_t total_firings;
  uint64_t director_iterations;
  size_t toll_notifications;
  size_t accident_notifications;
  uint64_t tolls_calculated;
  uint64_t accidents_recorded;
  double toll_avg_response_s;
  double toll_p95_response_s;
  double toll_max_response_s;
};

// Recorded with the options of GoldenOptions() below.
constexpr Golden kGoldens[] = {
    // clang-format off
    {SchedulerKind::kQBS, true, 15755, 2836, 1215, 419, 1215, 11, 0.0055407753086419752, 0.0073969999999999999, 0.0167},
    {SchedulerKind::kQBS, false, 14701, 2839, 1215, 419, 1215, 11, 0.0054697703703703703, 0.006476, 0.0167},
    {SchedulerKind::kRR, true, 15756, 2900, 1215, 419, 1215, 11, 0.0071185703703703701, 0.0092860000000000009, 0.077823000000000003},
    {SchedulerKind::kRR, false, 14703, 2903, 1215, 419, 1215, 11, 0.006228504526748971, 0.0076509999999999998, 0.072872000000000006},
    {SchedulerKind::kRB, true, 15742, 6813, 1215, 419, 1215, 11, 0.0088748781893004114, 0.0094289999999999999, 0.44782300000000003},
    {SchedulerKind::kRB, false, 14687, 6906, 1215, 419, 1215, 11, 0.0079412740740740732, 0.0076519999999999999, 0.44231700000000002},
    {SchedulerKind::kFIFO, true, 15755, 2836, 1215, 419, 1215, 11, 0.00905436378600823, 0.0094289999999999999, 0.48047400000000001},
    {SchedulerKind::kFIFO, false, 14701, 2839, 1215, 419, 1215, 11, 0.0081426386831275725, 0.0076509999999999998, 0.487622},
    {SchedulerKind::kEDF, true, 15756, 2836, 1215, 419, 1215, 11, 0.0091626658436213988, 0.0094289999999999999, 0.57994400000000002},
    {SchedulerKind::kEDF, false, 14702, 2839, 1215, 419, 1215, 11, 0.0082652543209876545, 0.0076509999999999998, 0.58794299999999999},
    {SchedulerKind::kPNCWF, true, 15697, 0, 1215, 427, 1215, 11, 0.011304538271604939, 0.01737, 0.058904999999999999},
    {SchedulerKind::kPNCWF, false, 14687, 0, 1215, 427, 1215, 11, 0.010670306172839506, 0.016820000000000002, 0.063264000000000001},
    // clang-format on
};

ExperimentOptions GoldenOptions(const Golden& g) {
  ExperimentOptions opt;
  opt.scheduler = g.kind;
  opt.hierarchical = g.hierarchical;
  // A short, steady, accident-dense trace: cheap enough to run every
  // configuration in a few seconds, long enough for the 4-report stopped-car
  // window to detect accidents and notify.
  opt.workload.duration = Seconds(240);
  opt.workload.initial_rate = 12.0;
  opt.workload.rate_slope_per_sec = 0.0;
  opt.workload.mean_accident_gap = 20.0;
  opt.workload.seed = 7;
  return opt;
}

std::string Row(const Golden& g, const ExperimentResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{SchedulerKind::k%s, %s, %llu, %llu, %zu, %zu, %llu, %llu, "
                "%.17g, %.17g, %.17g},",
                SchedulerKindName(g.kind), g.hierarchical ? "true" : "false",
                static_cast<unsigned long long>(r.total_firings),
                static_cast<unsigned long long>(r.director_iterations),
                r.toll_notifications, r.accident_notifications,
                static_cast<unsigned long long>(r.tolls_calculated),
                static_cast<unsigned long long>(r.accidents_recorded),
                r.toll_avg_response_s, r.toll_p95_response_s,
                r.toll_max_response_s);
  return buf;
}

void ExpectMatches(const Golden& g, const ExperimentOptions& options) {
  auto res = RunLRBExperiment(options);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res->status.ok()) << res->status.ToString();
  const ExperimentResult& r = *res;
  SCOPED_TRACE("observed row: " + Row(g, r));
  EXPECT_EQ(r.total_firings, g.total_firings);
  EXPECT_EQ(r.director_iterations, g.director_iterations);
  EXPECT_EQ(r.toll_notifications, g.toll_notifications);
  EXPECT_EQ(r.accident_notifications, g.accident_notifications);
  EXPECT_EQ(r.tolls_calculated, g.tolls_calculated);
  EXPECT_EQ(r.accidents_recorded, g.accidents_recorded);
  EXPECT_EQ(r.toll_avg_response_s, g.toll_avg_response_s);
  EXPECT_EQ(r.toll_p95_response_s, g.toll_p95_response_s);
  EXPECT_EQ(r.toll_max_response_s, g.toll_max_response_s);
}

class DeterminismGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DeterminismGolden, SimulatedOutputsMatchExactly) {
  ExpectMatches(GetParam(), GoldenOptions(GetParam()));
}

std::string GoldenName(const ::testing::TestParamInfo<Golden>& info) {
  return std::string(SchedulerKindName(info.param.kind)) +
         (info.param.hierarchical ? "_Hierarchical" : "_Flat");
}

INSTANTIATE_TEST_SUITE_P(AllExecutionModels, DeterminismGolden,
                         ::testing::ValuesIn(kGoldens), GoldenName);

// Figure 8 (bench_fig8_all_schedulers): QBS-q500, RR-q40000, RB, PNCWF,
// FIFO and EDF over the paper's full 600 s Figure 5 ramp. The same runs
// produce the `metrics` blocks of bench/baselines/BENCH_fig8_*.json, which
// print these figures rounded to six significant digits.
constexpr Golden kFig8Goldens[] = {
    // clang-format off
    {SchedulerKind::kQBS, true, 324427, 17803, 28825, 4734, 28835, 5, 12.007595473339116, 51.749316999999998, 55.295940000000002},
    {SchedulerKind::kRR, true, 324761, 18793, 28684, 4796, 28690, 5, 12.426018665632409, 53.212045000000003, 56.594047000000003},
    {SchedulerKind::kRB, true, 301219, 37382, 29333, 3936, 29468, 4, 13.611156549074421, 54.722349999999999, 69.707988999999998},
    {SchedulerKind::kPNCWF, true, 238162, 0, 21715, 2815, 21715, 5, 34.634155209947039, 123.50238, 133.13003499999999},
    {SchedulerKind::kFIFO, true, 315725, 16395, 27142, 1764, 31197, 3, 13.206324830668338, 58.694021999999997, 71.905590000000004},
    {SchedulerKind::kEDF, true, 318958, 16419, 28282, 3721, 31186, 4, 13.995666326780285, 52.953477999999997, 60.148353999999998},
    // clang-format on
};

ExperimentOptions Fig8Options(const Golden& g) {
  ExperimentOptions opt;
  opt.scheduler = g.kind;
  opt.qbs.basic_quantum = 500;
  opt.rr.slice = 40000;
  return opt;
}

class Fig8DeterminismGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(Fig8DeterminismGolden, SimulatedOutputsMatchExactly) {
  ExpectMatches(GetParam(), Fig8Options(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, Fig8DeterminismGolden,
                         ::testing::ValuesIn(kFig8Goldens), GoldenName);

// Figure 6 (bench_fig6_rr_sensitivity: RR slice sweep) and Figure 7
// (bench_fig7_qbs_sensitivity: QBS basic quantum sweep) over the same
// ramp. RR-q40000 and QBS-q500 are the Fig. 8 rows above.
struct SweepGolden {
  Duration quantum;
  Golden golden;
};

constexpr SweepGolden kFig67Goldens[] = {
    // clang-format off
    {5000, {SchedulerKind::kRR, true, 326594, 36276, 26511, 5229, 26511, 5, 16.501812212704163, 73.219577999999998, 79.108266}},
    {10000, {SchedulerKind::kRR, true, 325998, 26341, 27648, 4987, 27649, 5, 14.669173780779802, 62.588946, 67.587726000000004}},
    {20000, {SchedulerKind::kRR, true, 325186, 21271, 28314, 4856, 28316, 5, 13.303832445539308, 56.644115999999997, 60.683563999999997}},
    {1000, {SchedulerKind::kQBS, true, 324283, 17083, 28813, 4750, 28835, 5, 12.148926162357268, 52.386814999999999, 55.344309000000003}},
    {5000, {SchedulerKind::kQBS, true, 324157, 16536, 28719, 4734, 28816, 5, 12.451321860719384, 54.221009000000002, 56.417200999999999}},
    {10000, {SchedulerKind::kQBS, true, 324106, 16473, 28592, 4653, 28825, 5, 12.160838986989368, 54.670141000000001, 57.527681999999999}},
    {20000, {SchedulerKind::kQBS, true, 323839, 16444, 28316, 4476, 28839, 5, 11.327467162699534, 54.678147000000003, 60.374738999999998}},
    // clang-format on
};

class Fig67DeterminismGolden : public ::testing::TestWithParam<SweepGolden> {
};

TEST_P(Fig67DeterminismGolden, SimulatedOutputsMatchExactly) {
  const SweepGolden& g = GetParam();
  ExperimentOptions opt;
  opt.scheduler = g.golden.kind;
  opt.rr.slice = g.quantum;
  opt.qbs.basic_quantum = g.quantum;
  ExpectMatches(g.golden, opt);
}

INSTANTIATE_TEST_SUITE_P(
    QuantumSweeps, Fig67DeterminismGolden, ::testing::ValuesIn(kFig67Goldens),
    [](const ::testing::TestParamInfo<SweepGolden>& info) {
      return std::string(SchedulerKindName(info.param.golden.kind)) + "_q" +
             std::to_string(info.param.quantum);
    });

}  // namespace
}  // namespace cwf::lrb

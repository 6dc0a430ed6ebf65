// Superlinearity guard: the QBS-q500 Figure 5 ramp at 150, 300, 600 and
// 1200 s, reporting host microseconds per input report at each duration.
//
// Past ~560 s the ramp sits at its 200 reports/s cap, well beyond the
// scheduled capacity, so the long runs measure the overload regime where
// queues and window state keep growing. Host cost per report must stay
// roughly flat there: the run exits non-zero when the 1200 s cost per
// report exceeds kMaxGrowth times the 150 s cost. The sweep runs kRounds
// times, interleaving durations so machine drift hits all of them alike,
// and compares per-duration medians: a single 150 s run lasts a fraction
// of a second and is too noisy to divide by.
//
// Each round also runs the 600 s ramp with wave tracing on, timing the run
// plus the Chrome trace export that reads it back; the sweep exits
// non-zero when its median cost per report exceeds kMaxTracedOverhead
// times the untraced 600 s median.
//
// Writes BENCH_duration_sweep.json (bench/harness.h schema) into the
// working directory: `metrics` carries the median host_us_per_report_<D>s
// and reports_<D>s per duration, the growth ratio and
// traced_overhead_600s; wall_s and throughput_per_s cover the whole sweep.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness.h"
#include "lrb/harness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

using namespace cwf;
using namespace cwf::lrb;

namespace {

constexpr int64_t kDurationsS[] = {150, 300, 600, 1200};
constexpr size_t kNumDurations = std::size(kDurationsS);
constexpr int kRounds = 3;
constexpr double kMaxGrowth = 2.0;
/// The traced run repeats the 600 s ramp.
constexpr size_t kTraced = 2;
static_assert(kDurationsS[kTraced] == 600);
constexpr double kMaxTracedOverhead = 1.5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One QBS-q500 ramp of `duration_s`; returns host µs per input report, or
/// a negative value when the run failed. With `traced`, wave tracing is on
/// and the Chrome trace export is part of the timed span.
double RunRamp(int64_t duration_s, bool traced, double* reports,
               double* wall_s) {
  ExperimentOptions opt;
  opt.scheduler = SchedulerKind::kQBS;
  opt.qbs.basic_quantum = 500;
  opt.workload.duration = Seconds(duration_s);
  if (traced) {
    obs::ResetGlobalTracer();
    obs::SetTracingEnabled(true);
  }
  const auto host_start = std::chrono::steady_clock::now();
  auto res = RunLRBExperiment(opt);
  if (traced) {
    obs::SetTracingEnabled(false);
    const std::string json = obs::GlobalTracer().RenderChromeJson();
    static_cast<void>(json);
  }
  *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          host_start)
                .count();
  if (traced) {
    obs::ResetGlobalTracer();
  }
  if (!res.ok() || !res->status.ok()) {
    std::fprintf(stderr, "%llds%s run failed: %s\n",
                 static_cast<long long>(duration_s), traced ? " traced" : "",
                 (res.ok() ? res->status : res.status()).ToString().c_str());
    return -1;
  }
  *reports = static_cast<double>(res->reports_generated);
  return *reports > 0 ? *wall_s * 1e6 / *reports : 0;
}

}  // namespace

int main() {
  std::printf("Duration sweep: QBS-q500, Figure 5 ramp, %d rounds\n\n",
              kRounds);
  std::printf("# round  duration_s  reports  wall_s  host_us_per_report\n");
  std::vector<double> us_per_report[kNumDurations];
  std::vector<double> traced_us_per_report;
  double reports[kNumDurations] = {};
  double total_wall_s = 0;
  double total_reports = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t d = 0; d <= kNumDurations; ++d) {
      // The last slot of a round is the traced 600 s run.
      const bool traced = d == kNumDurations;
      const int64_t duration_s = kDurationsS[traced ? kTraced : d];
      double run_reports = 0;
      double wall_s = 0;
      const double us = RunRamp(duration_s, traced, &run_reports, &wall_s);
      if (us < 0) {
        return 1;
      }
      (traced ? traced_us_per_report : us_per_report[d]).push_back(us);
      if (!traced) {
        reports[d] = run_reports;
      }
      total_wall_s += wall_s;
      total_reports += run_reports;
      std::printf("%7d  %10lld%s  %7.0f  %6.2f  %18.2f\n", round,
                  static_cast<long long>(duration_s), traced ? "t" : " ",
                  run_reports, wall_s, us);
      std::fflush(stdout);
    }
  }

  bench::BenchResult bench;
  bench.bench = "duration_sweep";
  bench.config["scheduler"] = "QBS";
  bench.config["qbs_basic_quantum"] = "500";
  bench.config["clock"] = "virtual";
  bench.config["workload"] = "linear-road";
  bench.config["rounds"] = std::to_string(kRounds);
  bench.wall_s = total_wall_s;
  bench.throughput_per_s = total_wall_s > 0 ? total_reports / total_wall_s : 0;
  std::printf("\n# duration_s  median_host_us_per_report\n");
  for (size_t d = 0; d < kNumDurations; ++d) {
    const std::string suffix = "_" + std::to_string(kDurationsS[d]) + "s";
    const double median = Median(us_per_report[d]);
    bench.metrics["host_us_per_report" + suffix] = median;
    bench.metrics["reports" + suffix] = reports[d];
    std::printf("%12lld  %25.2f\n", static_cast<long long>(kDurationsS[d]),
                median);
  }
  const double first_us = Median(us_per_report[0]);
  const double last_us = Median(us_per_report[kNumDurations - 1]);
  const double growth = first_us > 0 ? last_us / first_us : 0;
  bench.metrics["host_us_per_report_growth"] = growth;
  const double untraced_us = Median(us_per_report[kTraced]);
  const double traced_us = Median(traced_us_per_report);
  const double traced_overhead = untraced_us > 0 ? traced_us / untraced_us : 0;
  bench.metrics["traced_overhead_600s"] = traced_overhead;
  const std::string path = "BENCH_duration_sweep.json";
  const Status st = bench::WriteBenchJson(bench, path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("\n# growth 1200s/150s = %.2fx (limit %.1fx); wrote %s\n",
              growth, kMaxGrowth, path.c_str());
  std::printf("# traced/untraced at %llds = %.2fx (limit %.1fx)\n",
              static_cast<long long>(kDurationsS[kTraced]), traced_overhead,
              kMaxTracedOverhead);
  int exit_code = 0;
  if (growth > kMaxGrowth) {
    std::fprintf(stderr,
                 "superlinear host cost: %.2f us/report at 1200 s vs %.2f at "
                 "150 s (%.2fx > %.1fx)\n",
                 last_us, first_us, growth, kMaxGrowth);
    exit_code = 1;
  }
  if (traced_overhead > kMaxTracedOverhead) {
    std::fprintf(stderr,
                 "tracing too costly: %.2f us/report traced vs %.2f untraced "
                 "at %llds (%.2fx > %.1fx)\n",
                 traced_us, untraced_us,
                 static_cast<long long>(kDurationsS[kTraced]), traced_overhead,
                 kMaxTracedOverhead);
    exit_code = 1;
  }
  return exit_code;
}

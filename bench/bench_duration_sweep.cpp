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
// Writes BENCH_duration_sweep.json (bench/harness.h schema) into the
// working directory: `metrics` carries the median host_us_per_report_<D>s
// and reports_<D>s per duration plus the growth ratio; wall_s and
// throughput_per_s cover the whole sweep.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness.h"
#include "lrb/harness.h"

using namespace cwf;
using namespace cwf::lrb;

namespace {

constexpr int64_t kDurationsS[] = {150, 300, 600, 1200};
constexpr size_t kNumDurations = std::size(kDurationsS);
constexpr int kRounds = 3;
constexpr double kMaxGrowth = 2.0;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  std::printf("Duration sweep: QBS-q500, Figure 5 ramp, %d rounds\n\n",
              kRounds);
  std::printf("# round  duration_s  reports  wall_s  host_us_per_report\n");
  std::vector<double> us_per_report[kNumDurations];
  double reports[kNumDurations] = {};
  double total_wall_s = 0;
  double total_reports = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t d = 0; d < kNumDurations; ++d) {
      ExperimentOptions opt;
      opt.scheduler = SchedulerKind::kQBS;
      opt.qbs.basic_quantum = 500;
      opt.workload.duration = Seconds(kDurationsS[d]);
      const auto host_start = std::chrono::steady_clock::now();
      auto res = RunLRBExperiment(opt);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_start)
              .count();
      if (!res.ok() || !res->status.ok()) {
        std::fprintf(
            stderr, "%llds run failed: %s\n",
            static_cast<long long>(kDurationsS[d]),
            (res.ok() ? res->status : res.status()).ToString().c_str());
        return 1;
      }
      reports[d] = static_cast<double>(res->reports_generated);
      us_per_report[d].push_back(reports[d] > 0 ? wall_s * 1e6 / reports[d]
                                                : 0);
      total_wall_s += wall_s;
      total_reports += reports[d];
      std::printf("%7d  %10lld  %7.0f  %6.2f  %18.2f\n", round,
                  static_cast<long long>(kDurationsS[d]), reports[d], wall_s,
                  us_per_report[d].back());
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
  const std::string path = "BENCH_duration_sweep.json";
  const Status st = bench::WriteBenchJson(bench, path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("\n# growth 1200s/150s = %.2fx (limit %.1fx); wrote %s\n",
              growth, kMaxGrowth, path.c_str());
  if (growth > kMaxGrowth) {
    std::fprintf(stderr,
                 "superlinear host cost: %.2f us/report at 1200 s vs %.2f at "
                 "150 s (%.2fx > %.1fx)\n",
                 last_us, first_us, growth, kMaxGrowth);
    return 1;
  }
  return 0;
}

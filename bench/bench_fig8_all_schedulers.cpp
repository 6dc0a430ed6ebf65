// Figure 8: response times of all the main schedulers — QBS-q500,
// RR-q40000, RB and the thread-based PNCWF — plus the library's extension
// policies (FIFO, EDF) for reference.
//
// With --bench-dir DIR each configuration additionally lands as a canonical
// BENCH_fig8_<label>.json (bench/harness.h schema) for tools/bench_compare.
// Those runs profile with tracing off and record the profiler's
// host_phase_us, starting every configuration from zeroed counters.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.h"
#include "lrb/harness.h"
#include "obs/metrics.h"
#include "obs/profile.h"

using namespace cwf;
using namespace cwf::lrb;

int main(int argc, char** argv) {
  std::string bench_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-dir") == 0 && i + 1 < argc) {
      bench_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--bench-dir DIR]\n", argv[0]);
      return 2;
    }
  }
  std::printf(
      "Figure 8: Response Times at TollNotification, all schedulers\n\n");
  struct Config {
    SchedulerKind kind;
    const char* label;
    const char* slug;
  };
  const Config configs[] = {
      {SchedulerKind::kQBS, "QBS-q500", "qbs"},
      {SchedulerKind::kRR, "RR-q40000", "rr"},
      {SchedulerKind::kRB, "RB", "rb"},
      {SchedulerKind::kPNCWF, "PNCWF", "pncwf"},
      {SchedulerKind::kFIFO, "FIFO*", "fifo"},
      {SchedulerKind::kEDF, "EDF*", "edf"},
  };
  int failures = 0;
  if (!bench_dir.empty()) {
    obs::SetProfilingEnabled(true);
  }
  for (const Config& cfg : configs) {
    // Each configuration's host_phase_us covers its own run only.
    obs::MetricsRegistry::Global().Reset();
    ExperimentOptions opt;
    opt.scheduler = cfg.kind;
    opt.qbs.basic_quantum = 500;
    opt.rr.slice = 40000;
    const auto host_start = std::chrono::steady_clock::now();
    auto res = RunLRBExperiment(opt);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    if (!res.ok()) {
      std::printf("%s FAILED: %s\n", cfg.label,
                  res.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%s\n", RenderCurve(*res, cfg.label).c_str());
    std::printf(
        "# %-9s avg=%7.3fs p95=%8.3fs max=%8.3fs thrash@2s=%5.0fs "
        "tolls=%zu accident_notifs=%zu firings=%llu\n\n",
        cfg.label, res->toll_avg_response_s, res->toll_p95_response_s,
        res->toll_max_response_s, res->ThrashTimeSeconds(2.0),
        res->toll_notifications, res->accident_notifications,
        static_cast<unsigned long long>(res->total_firings));
    if (!bench_dir.empty()) {
      bench::BenchResult bench = bench::FromLRB(
          *res, std::string("fig8_") + cfg.slug, wall_s);
      bench.config["qbs_basic_quantum"] = "500";
      bench.config["rr_slice"] = "40000";
      bench.host_phase_us =
          obs::SnapshotProfile(obs::MetricsRegistry::Global()).PhaseTotalsUs();
      const std::string path =
          bench_dir + "/BENCH_fig8_" + cfg.slug + ".json";
      const Status st = bench::WriteBenchJson(bench, path);
      if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
        ++failures;
      } else {
        std::printf("# wrote %s\n\n", path.c_str());
      }
    }
  }
  std::printf("(* library extensions, not part of the paper's Figure 8)\n");
  return failures == 0 ? 0 : 1;
}

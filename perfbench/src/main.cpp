// cwf_perfbench: runs one benchmark workload and prints everything it
// measured as one JSON document on stdout. perfbench/run.py builds this
// binary, checks the outputs and prints the benchmark's result line.
//
// Usage:
//   cwf_perfbench --workload ramp_overload|steady_soak|live_tcp
//                 --seed N --seconds S --trace 0|1 [--bench-json PATH]
//
// With --bench-json a traced run also writes its per-layer metrics and the
// profiler's host_phase_us to PATH in the BENCH_*.json schema
// (bench/harness.h).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/harness.h"
#include "workloads.h"

namespace cwf::perfbench {

size_t SpanRecorder::Open(const std::string& name, const std::string& parent) {
  report_->spans.push_back({name, parent, WallSeconds() - report_->origin_s, 0});
  return report_->spans.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  report_->spans[index].end_s = WallSeconds() - report_->origin_s;
}

namespace {

JsonObject MapToJson(const std::map<std::string, double>& values) {
  JsonObject object;
  for (const auto& [key, value] : values) {
    object.Num(key, value);
  }
  return object;
}

std::string Render(const RunOptions& options, const Report& report) {
  std::vector<JsonObject> spans;
  for (const Span& span : report.spans) {
    spans.push_back(JsonObject()
                        .Str("name", span.name)
                        .Str("parent", span.parent)
                        .Num("start_s", span.start_s)
                        .Num("end_s", span.end_s));
  }
  JsonObject doc;
  doc.Str("workload", options.workload)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Int("trace", options.trace ? 1 : 0)
      .Str("error", report.error)
      .Int("attempted", static_cast<int64_t>(report.attempted))
      .Int("failed", static_cast<int64_t>(report.failed))
      .Arr("outputs", report.outputs)
      .Obj("metrics", MapToJson(report.metrics))
      .Obj("host_phase_us", MapToJson(report.host_phase_us))
      .Obj("info", MapToJson(report.info))
      .Arr("spans", spans);
  return doc.Render();
}

/// The traced run in the BENCH_*.json schema; the spans stay in the
/// stdout document, which the schema has no place for.
Status WriteTracedBench(const RunOptions& options, const Report& report,
                        const std::string& path) {
  bench::BenchResult result;
  result.bench = "perfbench_" + options.workload + "_traced";
  result.config = {{"workload", options.workload},
                   {"seed", std::to_string(options.seed)},
                   {"seconds", std::to_string(options.seconds)}};
  const auto metric = [&report](const std::string& name) {
    const auto it = report.metrics.find(name);
    return it == report.metrics.end() ? 0.0 : it->second;
  };
  result.wall_s = metric("directors.run_s");
  result.throughput_per_s = metric("reports_per_s");
  result.metrics = report.metrics;
  result.host_phase_us = report.host_phase_us;
  return bench::WriteBenchJson(result, path);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ramp_overload|steady_soak|live_tcp "
               "--seed N --seconds S --trace 0|1 [--bench-json PATH]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace cwf::perfbench

int main(int argc, char** argv) {
  using namespace cwf::perfbench;
  RunOptions options;
  std::string bench_json;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bench-json") {
      bench_json = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 ||
      !(IsVirtualWorkload(options.workload) || options.workload == "live_tcp")) {
    return Usage(argv[0]);
  }
  Report report = IsVirtualWorkload(options.workload) ? RunVirtualWorkload(options)
                                                      : RunLiveTcp(options);
  if (report.error.empty() && options.trace && !bench_json.empty()) {
    const cwf::Status written = WriteTracedBench(options, report, bench_json);
    if (!written.ok()) {
      report.error = "writing " + bench_json + ": " + written.ToString();
    }
  }
  std::printf("%s\n", Render(options, report).c_str());
  return report.error.empty() ? 0 : 1;
}

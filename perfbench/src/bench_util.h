// Measurement helpers shared by the benchmark workloads: clocks, resident
// set size, percentiles, and the flat JSON document the benchmark prints.
// Peak RSS and the BENCH_*.json file come from bench/harness.h.

#ifndef CONFLUENCE_PERFBENCH_BENCH_UTIL_H_
#define CONFLUENCE_PERFBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cwf::perfbench {

/// \brief Seconds on the steady wall clock since an arbitrary origin.
double WallSeconds();

/// \brief CPU seconds (user + system) consumed by the whole process.
double ProcessCpuSeconds();

/// \brief CPU seconds (user + system) consumed by the calling thread.
double ThreadCpuSeconds();

/// \brief Current resident set size in KiB, from /proc/self/statm.
long CurrentRssKb();

/// \brief Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// \brief Nearest-rank percentile `p` (0..100) of `values` (0 when empty).
double Percentile(std::vector<double> values, double p);

/// \brief Wall-clock span around one call into an engine layer.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// \brief CPU time the calling thread spends in one call into an engine
/// layer. Unlike wall time it does not count preemption by other processes.
class ThreadCpuWatch {
 public:
  ThreadCpuWatch() : start_(ThreadCpuSeconds()) {}
  double Seconds() const { return ThreadCpuSeconds() - start_; }

 private:
  double start_;
};

/// \brief Background thread that samples the process RSS every 20 ms
/// together with a caller-supplied progress count (position reports the
/// engine has consumed so far). Start() and Stop() bracket Director::Run.
class RssSampler {
 public:
  struct Sample {
    double progress;
    long rss_kb;
  };

  explicit RssSampler(std::function<double()> progress);
  ~RssSampler();

  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Start();
  void Stop();

  /// \brief Least-squares slope of RSS (KiB) against progress over the
  /// second half of the samples, per 1000 units of progress.
  double GrowthKbPerThousand() const;

  /// \brief Largest value the optional `watch` probe returned.
  double WatchMax() const { return watch_max_; }

  /// \brief Also sample `watch` (e.g. a queue length) and keep its maximum.
  /// Call before Start().
  void set_watch(std::function<double()> watch) { watch_ = std::move(watch); }

 private:
  void Loop();
  void TakeSample();

  std::function<double()> progress_;
  std::function<double()> watch_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
  double watch_max_ = 0;
  std::thread thread_;
};

/// \brief Flat JSON object builder (numbers, strings, nested objects).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& Arr(const std::string& key, const std::vector<JsonObject>& items);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace cwf::perfbench

#endif  // CONFLUENCE_PERFBENCH_BENCH_UTIL_H_

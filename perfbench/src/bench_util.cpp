#include "bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

namespace cwf::perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long size_pages = 0;
  long resident_pages = 0;
  const int read = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (read != 2) {
    return 0;
  }
  return resident_pages * (sysconf(_SC_PAGESIZE) / 1024);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

RssSampler::RssSampler(std::function<double()> progress)
    : progress_(std::move(progress)) {}

RssSampler::~RssSampler() { Stop(); }

void RssSampler::Start() {
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void RssSampler::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  stop_ = true;
  thread_.join();
  TakeSample();
}

void RssSampler::Loop() {
  while (!stop_.load()) {
    TakeSample();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void RssSampler::TakeSample() {
  const Sample sample{progress_(), CurrentRssKb()};
  const double watched = watch_ ? watch_() : 0;
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(sample);
  watch_max_ = std::max(watch_max_, watched);
}

double RssSampler::GrowthKbPerThousand() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t begin = samples_.size() / 2;
  const double n = static_cast<double>(samples_.size() - begin);
  if (n < 2) {
    return 0;
  }
  double sx = 0, sy = 0;
  for (size_t i = begin; i < samples_.size(); ++i) {
    sx += samples_[i].progress;
    sy += static_cast<double>(samples_[i].rss_kb);
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0;
  for (size_t i = begin; i < samples_.size(); ++i) {
    const double dx = samples_[i].progress - mx;
    sxx += dx * dx;
    sxy += dx * (static_cast<double>(samples_[i].rss_kb) - my);
  }
  return sxx > 0 ? sxy / sxx * 1000.0 : 0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.Render());
  return *this;
}

JsonObject& JsonObject::Arr(const std::string& key,
                            const std::vector<JsonObject>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i].Render();
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::string JsonObject::Render() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(fields_[i].first) << ": "
        << fields_[i].second;
  }
  out << "}";
  return out.str();
}

}  // namespace cwf::perfbench

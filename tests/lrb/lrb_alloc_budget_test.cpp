// Allocation budget for the per-report path of a whole Linear Road run.
// Replaces the global operator new with a counting one, which is why this
// test is its own binary.
//
// A steady QBS run below capacity (80 reports/s) is measured at two
// durations; the difference in allocations over the difference in reports
// is the marginal cost of one report, with workflow construction,
// initialization and teardown cancelled out. It includes the generator's
// share (the trace is built before the run).
//
// kBudget is the measured figure plus a little slack for toolchain
// differences. It may only be lowered: when a change removes allocations
// from the per-event path, record the new measurement here; never raise it
// to make a change pass.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lrb/harness.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The nothrow form (std::stable_sort's buffer) must pair with the free()
// below too, or a sanitizer build reports an allocator mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cwf::lrb {
namespace {

// Measured 16.03 allocations per report (GCC 12 / libstdc++, x86-64, with
// and without debug checks); 17.03 before the source reused its batch
// buffer, 43.96 before the db queries were prepared at Initialize.
constexpr double kBudget = 16.5;

struct Measurement {
  uint64_t allocations = 0;
  size_t reports = 0;
};

Measurement SteadyRun(int64_t seconds) {
  ExperimentOptions opt;
  opt.scheduler = SchedulerKind::kQBS;
  opt.workload.duration = Seconds(seconds);
  opt.workload.initial_rate = 80.0;
  opt.workload.rate_slope_per_sec = 0.0;
  opt.workload.seed = 3;
  const uint64_t before = g_allocations.load();
  auto result = RunLRBExperiment(opt);
  Measurement m;
  m.allocations = g_allocations.load() - before;
  if (!result.ok() || !result.value().status.ok()) {
    ADD_FAILURE() << "run failed";
    return m;
  }
  // Below capacity every report gets through.
  EXPECT_GT(result.value().tolls_calculated, 0u);
  m.reports = result.value().reports_generated;
  return m;
}

TEST(LrbAllocBudgetTest, SteadyRunStaysWithinAllocationsPerReport) {
  const Measurement short_run = SteadyRun(60);
  const Measurement long_run = SteadyRun(180);
  ASSERT_GT(long_run.reports, short_run.reports);
  const double per_report =
      static_cast<double>(long_run.allocations - short_run.allocations) /
      static_cast<double>(long_run.reports - short_run.reports);
  RecordProperty("allocations_per_report", std::to_string(per_report));
  std::printf("allocations per report: %.2f (budget %.1f)\n", per_report,
              kBudget);
  EXPECT_LE(per_report, kBudget);
}

}  // namespace
}  // namespace cwf::lrb

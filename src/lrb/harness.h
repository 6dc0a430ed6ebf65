// Experiment harness: run the Linear Road workflow under a chosen
// director/scheduler on the virtual clock and collect the metrics the
// paper's evaluation section reports.

#ifndef CONFLUENCE_LRB_HARNESS_H_
#define CONFLUENCE_LRB_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "lrb/generator.h"
#include "obs/metrics.h"
#include "lrb/workflow_builder.h"
#include "stafilos/edf_scheduler.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"
#include "stafilos/rb_scheduler.h"
#include "stafilos/rr_scheduler.h"

namespace cwf::lrb {

/// \brief The execution models compared in the paper's Figure 8 plus the
/// extension policies.
enum class SchedulerKind { kQBS, kRR, kRB, kFIFO, kEDF, kPNCWF };

const char* SchedulerKindName(SchedulerKind kind);

/// \brief The calibrated cost model (see DESIGN.md "Virtual-time
/// methodology"): actor invocation costs plus the thread-vs-scheduled
/// dispatch overheads that set the capacity gap of Figure 8.
CostModel DefaultLRBCostModel();

/// \brief One experiment configuration.
struct ExperimentOptions {
  SchedulerKind scheduler = SchedulerKind::kQBS;
  GeneratorOptions workload;
  QBSOptions qbs;
  RROptions rr;
  RBOptions rb;
  FIFOOptions fifo;
  EDFOptions edf;
  CostModel cost_model = DefaultLRBCostModel();
  /// Package accident detection as a sub-workflow (paper structure).
  bool hierarchical = true;
  /// Extra virtual time after the last tuple for draining.
  Duration drain_slack = Seconds(30);
  /// Response-time curve bucket width.
  Duration bucket = Seconds(10);
};

/// \brief Everything a run produces.
struct ExperimentResult {
  SchedulerKind scheduler;
  Status status;

  /// The Figure 6/7/8 curve: avg response time at TollNotification vs time.
  std::vector<ResponseTimeSeries::Point> toll_curve;

  double toll_avg_response_s = 0;
  double toll_p95_response_s = 0;
  double toll_max_response_s = 0;
  size_t toll_notifications = 0;

  double accident_avg_response_s = 0;
  size_t accident_notifications = 0;
  double accident_fraction_under_5s = 0;  ///< LRB's 5-second requirement

  /// Per-query-type response-time histograms (µs), log-bucketed like the
  /// engine's latency metrics; bench/harness.h's BENCH JSON renders these.
  obs::HistogramSnapshot toll_response_hist;
  obs::HistogramSnapshot accident_response_hist;

  size_t reports_generated = 0;
  size_t accidents_injected = 0;
  uint64_t accidents_recorded = 0;
  uint64_t tolls_calculated = 0;
  uint64_t total_firings = 0;
  uint64_t director_iterations = 0;

  /// \brief First curve time (seconds) from which the average response time
  /// stays >= `threshold_s` to the end of the run; +inf if it never thrashes.
  double ThrashTimeSeconds(double threshold_s) const;
};

/// \brief Construct the scheduler instance an option set describes
/// (kPNCWF has no scheduler — returns nullptr).
std::unique_ptr<AbstractScheduler> MakeScheduler(
    const ExperimentOptions& options);

/// \brief Generate the workload, build the workflow, run it under the
/// configured execution model on a virtual clock, and collect metrics.
Result<ExperimentResult> RunLRBExperiment(const ExperimentOptions& options);

/// \brief Render a result as an aligned table of curve points (benchmark
/// output format).
std::string RenderCurve(const ExperimentResult& result,
                        const std::string& label);

}  // namespace cwf::lrb

#endif  // CONFLUENCE_LRB_HARNESS_H_

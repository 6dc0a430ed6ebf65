#include "lrb/harness.h"

#include <cmath>
#include <sstream>

#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"

namespace cwf::lrb {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kQBS:
      return "QBS";
    case SchedulerKind::kRR:
      return "RR";
    case SchedulerKind::kRB:
      return "RB";
    case SchedulerKind::kFIFO:
      return "FIFO";
    case SchedulerKind::kEDF:
      return "EDF";
    case SchedulerKind::kPNCWF:
      return "PNCWF";
  }
  return "?";
}

CostModel DefaultLRBCostModel() {
  CostModel model;
  // Baseline per-firing costs (µs). Calibrated so the scheduled directors
  // saturate near the paper's ~160 reports/s and the thread-based PNCWF
  // near ~120 reports/s (see EXPERIMENTS.md for the calibration run).
  CostParams defaults;
  defaults.base = 370;
  defaults.per_input_event = 37;
  defaults.per_output_event = 37;
  model.SetDefault(defaults);

  // The source just decodes and forwards tuples.
  model.SetActorCost("Source", {75, 8, 22});

  // Database-backed actors are the expensive ones (the paper's off-the-shelf
  // actors + relational queries).
  model.SetActorCost("AccidentNotification", {2380, 90, 57});
  model.SetActorCost("TollCalculation", {2380, 90, 57});
  model.SetActorCost("InsertAccident", {590, 57, 0});
  model.SetActorCost("Avgs", {885, 30, 59});
  model.SetActorCost("cars", {885, 22, 59});
  model.SetActorCost("Avgsv", {517, 37, 59});
  // The composite runs its whole inner sub-workflow per firing.
  model.SetActorCost("AccidentDetection", {1330, 66, 66});
  model.SetActorCost("DetectStoppedCars", {665, 44, 44});
  model.SetActorCost("DetectAccidents", {665, 44, 44});
  // Output actors only hand results off.
  model.SetActorCost("TollNotification", {177, 22, 0});
  model.SetActorCost("AccidentNotificationOut", {177, 22, 0});

  // Director overheads: the scheduled dispatch is cheap; the thread-based
  // director pays context switches and per-event synchronization on every
  // token crossing a thread boundary, plus frequent OS preemptions.
  model.scheduled_dispatch_overhead = 10;
  model.context_switch_overhead = 500;
  model.sync_per_event_overhead = 190;
  model.os_time_slice = 2000;
  return model;
}

std::unique_ptr<AbstractScheduler> MakeScheduler(
    const ExperimentOptions& options) {
  std::unique_ptr<AbstractScheduler> scheduler;
  switch (options.scheduler) {
    case SchedulerKind::kQBS:
      scheduler = std::make_unique<QBSScheduler>(options.qbs);
      break;
    case SchedulerKind::kRR:
      scheduler = std::make_unique<RRScheduler>(options.rr);
      break;
    case SchedulerKind::kRB:
      scheduler = std::make_unique<RBScheduler>(options.rb);
      break;
    case SchedulerKind::kFIFO:
      scheduler = std::make_unique<FIFOScheduler>(options.fifo);
      break;
    case SchedulerKind::kEDF:
      scheduler = std::make_unique<EDFScheduler>(options.edf);
      break;
    case SchedulerKind::kPNCWF:
      return nullptr;
  }
  ApplyLRBPriorities(scheduler.get());
  return scheduler;
}

double ExperimentResult::ThrashTimeSeconds(double threshold_s) const {
  double candidate = std::numeric_limits<double>::infinity();
  for (const auto& point : toll_curve) {
    if (point.avg_response_s >= threshold_s) {
      if (!std::isfinite(candidate)) {
        candidate = point.t_seconds;
      }
    } else {
      candidate = std::numeric_limits<double>::infinity();
    }
  }
  return candidate;
}

Result<ExperimentResult> RunLRBExperiment(const ExperimentOptions& options) {
  ExperimentResult result;
  result.scheduler = options.scheduler;

  // 1. Workload. PushTrace copies every entry, so the trace is dropped
  // before the run: kept, it would pin every record until the run ends.
  Generator generator(options.workload);
  auto feed = std::make_shared<PushChannel>();
  Timestamp horizon;
  {
    const Trace trace = generator.Generate();
    horizon = Timestamp(0) + (trace.EndTime() - Timestamp(0)) +
              options.drain_slack;
    feed->PushTrace(trace);
  }
  feed->Close();
  result.reports_generated = generator.report().position_reports;
  result.accidents_injected = generator.report().accidents_injected;

  // 2. Application.
  CWF_ASSIGN_OR_RETURN(LRBApplication app,
                       BuildLRBApplication(feed, options.hierarchical));

  // 3. Execution model.
  VirtualClock clock;
  std::unique_ptr<Director> director;
  SCWFDirector* scwf = nullptr;
  PNCWFDirector* pncwf = nullptr;
  if (options.scheduler == SchedulerKind::kPNCWF) {
    PNCWFOptions pn;
    pn.mode = PNCWFMode::kSimulatedThreads;
    auto d = std::make_unique<PNCWFDirector>(pn);
    pncwf = d.get();
    director = std::move(d);
  } else {
    auto d = std::make_unique<SCWFDirector>(MakeScheduler(options));
    scwf = d.get();
    director = std::move(d);
  }

  CWF_RETURN_NOT_OK(
      director->Initialize(app.workflow.get(), &clock, &options.cost_model));
  result.status = director->Run(horizon);
  CWF_RETURN_NOT_OK(director->Wrapup());

  // 4. Metrics.
  result.toll_curve = app.toll_series->Series(options.bucket);
  result.toll_avg_response_s = app.toll_series->OverallAvgSeconds();
  result.toll_p95_response_s = app.toll_series->PercentileSeconds(95);
  result.toll_max_response_s = app.toll_series->MaxSeconds();
  result.toll_notifications = app.toll_series->count();
  result.accident_avg_response_s = app.accident_series->OverallAvgSeconds();
  result.accident_notifications = app.accident_series->count();
  result.accident_fraction_under_5s =
      app.accident_series->FractionUnder(Seconds(5));
  result.accidents_recorded = app.insert_accident->accidents_recorded();
  result.tolls_calculated = app.toll_calculator->tolls_calculated();
  {
    obs::Histogram toll_hist;
    for (const int64_t us : app.toll_series->ResponseMicros()) {
      toll_hist.Record(us);
    }
    result.toll_response_hist = toll_hist.Snapshot();
    obs::Histogram accident_hist;
    for (const int64_t us : app.accident_series->ResponseMicros()) {
      accident_hist.Record(us);
    }
    result.accident_response_hist = accident_hist.Snapshot();
  }
  if (scwf != nullptr) {
    result.total_firings = scwf->total_firings();
    result.director_iterations = scwf->director_iterations();
  } else if (pncwf != nullptr) {
    result.total_firings = pncwf->total_firings();
  }
  return result;
}

std::string RenderCurve(const ExperimentResult& result,
                        const std::string& label) {
  std::ostringstream oss;
  oss << "# " << label << "\n";
  oss << "# time_s  avg_response_s  max_response_s  n\n";
  for (const auto& p : result.toll_curve) {
    char line[128];
    std::snprintf(line, sizeof(line), "%8.1f  %14.3f  %14.3f  %zu\n",
                  p.t_seconds, p.avg_response_s, p.max_response_s, p.n);
    oss << line;
  }
  return oss.str();
}

}  // namespace cwf::lrb

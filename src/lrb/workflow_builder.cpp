#include "lrb/workflow_builder.h"

#include "core/composite_actor.h"
#include "directors/ddf_director.h"

namespace cwf::lrb {

Result<LRBApplication> BuildLRBApplication(PushChannelPtr feed,
                                           bool hierarchical) {
  LRBApplication app;
  CWF_ASSIGN_OR_RETURN(app.database, CreateLRBDatabase());
  app.toll_series = std::make_unique<ResponseTimeSeries>();
  app.accident_series = std::make_unique<ResponseTimeSeries>();
  app.workflow = std::make_unique<Workflow>("LinearRoad");
  Workflow* wf = app.workflow.get();
  db::Database* database = app.database.get();

  app.source = wf->AddActor<StreamSourceActor>("Source", std::move(feed));
  app.source->out()->set_schema(PositionReportType());

  // ---- Area 1: accident detection & notification ----
  OutputPort* accident_out = nullptr;
  InputPort* detection_in = nullptr;
  if (hierarchical) {
    auto* composite = wf->AddActor<CompositeActor>(
        "AccidentDetection", std::make_unique<DDFDirector>());
    auto* stopped =
        composite->inner()->AddActor<StoppedCarDetector>("DetectStoppedCars");
    auto* detector =
        composite->inner()->AddActor<AccidentDetector>("DetectAccidents");
    CWF_RETURN_NOT_OK(
        composite->inner()->Connect(stopped->out(), detector->in()));
    detection_in = composite->ExposeInput("in", stopped->in());
    accident_out = composite->ExposeOutput("out", detector->out());
  } else {
    auto* stopped = wf->AddActor<StoppedCarDetector>("DetectStoppedCars");
    auto* detector = wf->AddActor<AccidentDetector>("DetectAccidents");
    CWF_RETURN_NOT_OK(wf->Connect(stopped->out(), detector->in()));
    detection_in = stopped->in();
    accident_out = detector->out();
  }
  app.insert_accident =
      wf->AddActor<InsertAccident>("InsertAccident", database);
  auto* notifier =
      wf->AddActor<AccidentNotifier>("AccidentNotification", database);
  app.accident_notification_out = wf->AddActor<OutputActor>(
      "AccidentNotificationOut", app.accident_series.get());

  CWF_RETURN_NOT_OK(wf->Connect(app.source->out(), detection_in));
  CWF_RETURN_NOT_OK(wf->Connect(accident_out, app.insert_accident->in()));
  CWF_RETURN_NOT_OK(wf->Connect(app.source->out(), notifier->in()));
  CWF_RETURN_NOT_OK(
      wf->Connect(notifier->out(), app.accident_notification_out->in()));

  // ---- Area 2: segment statistics ----
  auto* avgsv = wf->AddActor<AvgsvActor>("Avgsv");
  auto* avgs = wf->AddActor<AvgsActor>("Avgs", database);
  auto* cars = wf->AddActor<CarCountActor>("cars", database);
  CWF_RETURN_NOT_OK(wf->Connect(app.source->out(), avgsv->in()));
  CWF_RETURN_NOT_OK(wf->Connect(avgsv->out(), avgs->in()));
  CWF_RETURN_NOT_OK(wf->Connect(app.source->out(), cars->in()));

  // ---- Area 3: toll calculation & notification ----
  app.toll_calculator =
      wf->AddActor<TollCalculator>("TollCalculation", database);
  app.toll_notification =
      wf->AddActor<OutputActor>("TollNotification", app.toll_series.get());
  CWF_RETURN_NOT_OK(
      wf->Connect(app.source->out(), app.toll_calculator->in()));
  CWF_RETURN_NOT_OK(wf->Connect(app.toll_calculator->out(),
                                app.toll_notification->in()));

  return app;
}

void ApplyLRBPriorities(AbstractScheduler* scheduler) {
  // Paper Table 3: "The highest priority of 5 is given to the actors that
  // handle the immediate output of the workflow ... A priority of 10 was
  // given to the actors relevant to statistics maintenance and accident
  // detection."
  scheduler->SetActorPriority("TollCalculation", 5);
  scheduler->SetActorPriority("TollNotification", 5);
  scheduler->SetActorPriority("AccidentNotification", 5);
  scheduler->SetActorPriority("AccidentNotificationOut", 5);
  scheduler->SetActorPriority("AccidentDetection", 10);
  scheduler->SetActorPriority("DetectStoppedCars", 10);
  scheduler->SetActorPriority("DetectAccidents", 10);
  scheduler->SetActorPriority("InsertAccident", 10);
  scheduler->SetActorPriority("Avgsv", 10);
  scheduler->SetActorPriority("Avgs", 10);
  scheduler->SetActorPriority("cars", 10);
}

}  // namespace cwf::lrb

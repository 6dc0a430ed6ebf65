// The Scheduled Continuous Workflow (SCWF) director.
//
// "The SCWF director is the main component that interacts with the workflow
// model and the management modules. It is responsible for initializing the
// actors, ports, receivers and the scheduler, as well as transitioning the
// workflow model through the various execution stages within each
// iteration. The SCWF director is schedule-independent: a scheduling policy
// implementation, which extends the Abstract Scheduler, is being enacted by
// it."
//
// Per director iteration: getNextActor() → (for internal/output actors)
// dequeue an event from the scheduler's per-actor queue onto the actor's
// input-port buffer → prefire → fire (with cost timers running) → outputs
// flow through TM windowed receivers back into the scheduler → postfire and
// statistics/state updates. getNextActor() returning null ends the
// iteration: the scheduler performs maintenance (re-quantification, period
// release, priority refresh) and the cycle restarts.

#ifndef CONFLUENCE_DIRECTORS_SCWF_DIRECTOR_H_
#define CONFLUENCE_DIRECTORS_SCWF_DIRECTOR_H_

#include <memory>

#include "core/director.h"
#include "stafilos/abstract_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {

class SCWFDirector : public Director, public SchedulerHost {
 public:
  /// \brief The policy is plugged in at construction (plug-and-play).
  explicit SCWFDirector(std::unique_ptr<AbstractScheduler> scheduler);

  const char* kind() const override { return "SCWF"; }

  Status Initialize(Workflow* workflow, Clock* clock,
                    const CostModel* cost_model) override;

  std::unique_ptr<Receiver> CreateReceiver(InputPort* port) override;

  Status Run(Timestamp until) override;

  bool HasPendingWork() const override {
    return scheduler_->TotalQueuedEvents() > 0 ||
           NextWakeup() <= clock_->Now();
  }

  // ---- SchedulerHost ----
  Timestamp Now() const override { return clock_->Now(); }
  bool SourceHasData(const Actor* actor) const override;

  AbstractScheduler* scheduler() { return scheduler_.get(); }

  uint64_t director_iterations() const { return director_iterations_; }

 protected:
  /// Modeled cost plus the scheduled-dispatch overhead, advanced on a
  /// virtual clock.
  Duration ChargeFiring(const Actor* actor, size_t consumed, size_t emitted,
                        Timestamp fire_start) override;

 private:
  /// Route a produced window into the scheduler (TM receiver callback) and
  /// record its events as arrivals unless the load shedder dropped it.
  void OnWindowReady(TMWindowedReceiver* receiver, Window window);

  /// Close timed windows whose formation deadline passed; run actors whose
  /// internal deadline passed (composites with pending inner timeouts).
  Status FireTimeouts(Timestamp now);

  /// Deliver queued windows until the actor can fire, fire it once
  /// (Director::FireOnce) and notify the scheduler.
  Status DispatchActor(Actor* actor);

  std::unique_ptr<AbstractScheduler> scheduler_;
  uint64_t director_iterations_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_DIRECTORS_SCWF_DIRECTOR_H_

#include "directors/scwf_director.h"

#include <chrono>
#include <thread>

namespace cwf {

SCWFDirector::SCWFDirector(std::unique_ptr<AbstractScheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  CWF_CHECK_MSG(scheduler_ != nullptr, "SCWFDirector needs a scheduler");
}

Status SCWFDirector::Initialize(Workflow* workflow, Clock* clock,
                                const CostModel* cost_model) {
  if (clock != nullptr && clock->is_virtual() && cost_model == nullptr) {
    return Status::InvalidArgument(
        "virtual-clock execution requires a cost model");
  }
  director_iterations_ = 0;
  CWF_RETURN_NOT_OK(Director::Initialize(workflow, clock, cost_model));
  CWF_RETURN_NOT_OK(scheduler_->Initialize(this, *workflow));
  return Status::OK();
}

std::unique_ptr<Receiver> SCWFDirector::CreateReceiver(InputPort* port) {
  if (initialized_) {
    // A composite's boundary input, installed after Initialize: the
    // scheduler registered its actor as a source (no channel fed it then).
    scheduler_->OnInputAttached(port->actor());
  }
  return std::make_unique<TMWindowedReceiver>(
      port, port->spec(), [this](TMWindowedReceiver* r, Window w) {
        OnWindowReady(r, std::move(w));
      });
}

void SCWFDirector::OnWindowReady(TMWindowedReceiver* receiver, Window window) {
  Actor* target = receiver->port()->actor();
  const size_t n = window.events.size();
  ReadyWindow rw;
  rw.receiver = receiver;
  rw.window = std::move(window);
  if (scheduler_->Enqueue(target, std::move(rw))) {
    telemetry_.RecordArrival(target, n);
  }
}

bool SCWFDirector::SourceHasData(const Actor* actor) const {
  if (const TimedSource* src = TimedSourceOf(actor)) {
    return src->NextPendingArrival() <= clock_->Now();
  }
  // Non-stream sources (generators with no timing) are always ready unless
  // halted.
  return !IsHalted(actor);
}

Status SCWFDirector::FireTimeouts(Timestamp now) {
  // Produced windows flow through OnWindowReady.
  FireReceiverTimeouts(now);
  // Composites holding expired inner deadlines must run even with no queued
  // window; dispatch them directly.
  for (const auto& actor : workflow_->actors()) {
    if (actor->NextDeadline() <= now && !IsHalted(actor.get())) {
      CWF_RETURN_NOT_OK(DispatchActor(actor.get()));
    }
  }
  return Status::OK();
}

Status SCWFDirector::DispatchActor(Actor* actor) {
#ifdef CWF_OBS_ENABLED
  const obs::ProfileSite* prefire_site =
      obs::ProfilingEnabled() ? telemetry_.ProfileSitesFor(actor).prefire
                              : nullptr;
#endif
  // Deliver queued windows onto the actor's receiver buffers until its
  // firing precondition holds (one window in the common single-input case).
  bool can_fire = false;
  {
    CWF_PROFILE_SCOPE(prefire_site);
    auto ready = actor->Prefire();
    if (!ready.ok()) {
      return ready.status();
    }
    can_fire = ready.value();
    while (!can_fire) {
      std::optional<ReadyWindow> rw = scheduler_->PopWindow(actor);
      if (!rw.has_value()) {
        break;
      }
      rw->receiver->DeliverBuffered(std::move(rw->window));
      auto again = actor->Prefire();
      if (!again.ok()) {
        return again.status();
      }
      can_fire = again.value();
    }
  }
  FiringOutcome outcome;
  if (can_fire) {
    CWF_ASSIGN_OR_RETURN(outcome, FireOnce(actor));
  }
  scheduler_->OnActorFired(actor, outcome, can_fire);
  return Status::OK();
}

Duration SCWFDirector::ChargeFiring(const Actor* actor, size_t consumed,
                                    size_t emitted, Timestamp fire_start) {
  const Duration cost =
      Director::ChargeFiring(actor, consumed, emitted, fire_start);
  if (clock_->is_virtual()) {
    clock_->AdvanceBy(cost + cost_model_->scheduled_dispatch_overhead);
  }
  return cost;
}

Status SCWFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("SCWFDirector::Run before Initialize");
  }
#ifdef CWF_OBS_ENABLED
  static const obs::ProfileSite* dispatch_site = obs::Profiler::Global().Site(
      "<scheduler>", obs::ProfilePhase::kSchedulerDispatch);
#endif
  CWF_PROFILE_WALL_SCOPE();
  constexpr uint64_t kMaxIdleIterations = 1000000;
  uint64_t idle_iterations = 0;
  for (;;) {
    // ---- one director iteration ----
    scheduler_->OnIterationStart();
    ++director_iterations_;
    while (clock_->Now() <= until) {
      Actor* next = nullptr;
      {
        // Scheduler-dispatch phase: timer service + policy pick + decision
        // bookkeeping. Deadline-driven dispatches inside FireTimeouts nest
        // their own prefire/fire scopes and are subtracted from this one.
        CWF_PROFILE_SCOPE(dispatch_site);
        CWF_RETURN_NOT_OK(FireTimeouts(clock_->Now()));
        next = scheduler_->GetNextActor();
        if (next != nullptr &&
            (obs::MetricsEnabled() || obs::TracingEnabled())) {
          telemetry_.RecordDecision(next, scheduler_->TotalQueuedEvents(),
                                    clock_->Now());
        }
      }
      if (next == nullptr) {
        break;
      }
      if (IsHalted(next)) {
        // Drop its pending work so the scheduler does not spin on it.
        while (scheduler_->PopWindow(next).has_value()) {
        }
        scheduler_->OnActorFired(next, FiringOutcome{}, false);
        continue;
      }
      CWF_RETURN_NOT_OK(DispatchActor(next));
    }
    scheduler_->OnIterationEnd();

    if (clock_->Now() > until) {
      break;
    }
    if (scheduler_->HasImmediateWork()) {
      idle_iterations = 0;
      continue;
    }
    if (scheduler_->TotalQueuedEvents() > 0) {
      // Nothing ACTIVE yet but events remain queued (e.g. every quantum
      // actor is WAITING): keep iterating — the policy's end-of-iteration
      // maintenance (re-quantification, period release) will activate them.
      if (++idle_iterations > kMaxIdleIterations) {
        return Status::ResourceExhausted(
            "scheduler '" + std::string(scheduler_->name()) +
            "' made no progress over " + std::to_string(kMaxIdleIterations) +
            " iterations with events queued");
      }
      continue;
    }
    idle_iterations = 0;
    // Quiescent: advance (or wait) to the next timer if any.
    const Timestamp next = NextWakeup();
    if (next == Timestamp::Max() || next > until) {
      break;
    }
    if (clock_->is_virtual()) {
      if (next > clock_->Now()) {
        clock_->AdvanceTo(next);
      }
    } else {
      const Duration gap = next - clock_->Now();
      if (gap > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<Duration>(gap, Millis(10))));
      }
    }
  }
  return Status::OK();
}

}  // namespace cwf

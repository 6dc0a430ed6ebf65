#include "stafilos/rb_scheduler.h"

namespace cwf {

RBScheduler::RBScheduler(RBOptions options) : options_(options) {
  source_interval_ = options_.source_interval;
}

bool RBScheduler::HigherPriority(const Entry& a, const Entry& b) const {
  if (a.priority != b.priority) {
    return a.priority > b.priority;  // highest rate first
  }
  return a.ready_order < b.ready_order;
}

void RBScheduler::RecomputeState(Entry* entry) {
  if (!entry->is_source) {
    // Table 2, RB column: ACTIVE = events waiting in its queue; WAITING =
    // no events in the queue but events in the next-period buffer;
    // INACTIVE = neither.
    if (!entry->queue.empty()) {
      SetState(entry, ActorState::kActive);
    } else if (!entry->period_buffer.empty()) {
      SetState(entry, ActorState::kWaiting);
    } else {
      SetState(entry, ActorState::kInactive);
    }
    return;
  }
  // Source: ACTIVE = has not yet fired in the current period; WAITING =
  // has fired (sources never become INACTIVE).
  if (SourceHasData(*entry) && !entry->fired_this_iteration) {
    SetState(entry, ActorState::kActive);
  } else {
    SetState(entry, ActorState::kWaiting);
  }
}

void RBScheduler::OnIterationEnd() {
  // Period boundary: refresh the dynamic priorities from the statistics
  // module, then let the base release the period buffers and recompute
  // states.
  stats_.RecomputeGlobal();
  for (Entry& entry : entries_) {
    entry.priority = stats_.RatePriority(entry.actor);
  }
  AbstractScheduler::OnIterationEnd();
}

double RBScheduler::PriorityOf(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? 0.0 : entry->priority;
}

}  // namespace cwf

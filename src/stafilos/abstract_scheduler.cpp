#include "stafilos/abstract_scheduler.h"

#include <algorithm>

namespace cwf {
namespace {

/// Min-heap comparator over (key_ts, key_seq): std::push_heap builds a
/// max-heap, so invert.
struct HeapCmp {
  bool operator()(const QueuedWindow& a, const QueuedWindow& b) const {
    if (a.key_ts != b.key_ts) {
      return a.key_ts > b.key_ts;
    }
    return a.key_seq > b.key_seq;
  }
};

}  // namespace

const char* ActorStateName(ActorState state) {
  switch (state) {
    case ActorState::kActive:
      return "ACTIVE";
    case ActorState::kWaiting:
      return "WAITING";
    case ActorState::kInactive:
      return "INACTIVE";
  }
  return "?";
}

Status AbstractScheduler::Initialize(SchedulerHost* host,
                                     const Workflow& workflow) {
  if (host == nullptr) {
    return Status::InvalidArgument("scheduler needs a host");
  }
  host_ = host;
  stats_.Initialize(workflow);
  entries_.clear();
  store_.clear();
  free_slots_.clear();
  iterations_ = 0;
  internal_firings_since_source_ = 0;
  ready_counter_ = 0;
  source_rr_cursor_ = 0;
  queued_events_ = 0;
  entries_.reserve(workflow.actors().size());
  for (const auto& owned : workflow.actors()) {
    Actor* actor = owned.get();
    Entry entry;
    entry.actor = actor;
    entry.is_source = actor->IsSource();
    auto it = designer_priorities_.find(actor->name());
    if (it != designer_priorities_.end()) {
      entry.designer_priority = it->second;
    }
    entries_.push_back(std::move(entry));
  }
  for (Entry& entry : entries_) {
    OnRegister(&entry);
    RecomputeState(&entry);
  }
  return Status::OK();
}

AbstractScheduler::Entry* AbstractScheduler::Find(const Actor* actor) {
  const size_t slot = actor->slot();
  return slot < entries_.size() && entries_[slot].actor == actor
             ? &entries_[slot]
             : nullptr;
}

const AbstractScheduler::Entry* AbstractScheduler::Find(
    const Actor* actor) const {
  const size_t slot = actor->slot();
  return slot < entries_.size() && entries_[slot].actor == actor
             ? &entries_[slot]
             : nullptr;
}

uint32_t AbstractScheduler::Store(ReadyWindow window) {
  if (free_slots_.empty()) {
    store_.push_back(std::move(window));
    return static_cast<uint32_t>(store_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  store_[slot] = std::move(window);
  return slot;
}

void AbstractScheduler::SetState(Entry* entry, ActorState state) {
  if (entry->state != ActorState::kActive && state == ActorState::kActive) {
    entry->ready_order = ++ready_counter_;
  }
  entry->state = state;
}

void AbstractScheduler::RecomputeAllStates() {
  for (Entry& entry : entries_) {
    RecomputeState(&entry);
  }
}

bool AbstractScheduler::SourceHasData(const Entry& entry) const {
  return entry.is_source && host_ != nullptr &&
         host_->SourceHasData(entry.actor);
}

bool AbstractScheduler::Enqueue(Actor* target, ReadyWindow window) {
  Entry* entry = Find(target);
  CWF_CHECK_MSG(entry != nullptr,
                "Enqueue for unregistered actor " << target->name());
  if (shedding_.max_queued_windows_per_actor > 0 &&
      entry->queue.size() + entry->period_buffer.size() >=
          shedding_.max_queued_windows_per_actor) {
    // Drop-tail load shedding: the newest window is sacrificed to bound the
    // queueing delay of everything already admitted.
    ++shed_windows_;
    shed_events_ += window.window.events.size();
    return false;
  }
  window.enqueued_at = host_->Now();
  window.key_ts = window.window.OldestTimestamp();
  window.key_seq =
      window.window.events.empty() ? 0 : window.window.events.front().seq;
  stats_.OnEventsArrived(target, window.window.events.size(),
                         window.enqueued_at);
  queued_events_ += window.window.events.size();
  const QueuedWindow handle{window.key_ts, window.key_seq,
                            Store(std::move(window))};
  if (BufferToNextPeriod()) {
    entry->period_buffer.push_back(handle);
  } else {
    entry->queue.push_back(handle);
    std::push_heap(entry->queue.begin(), entry->queue.end(), HeapCmp());
  }
  RecomputeState(entry);
  return true;
}

std::optional<ReadyWindow> AbstractScheduler::PopWindow(Actor* actor) {
  Entry* entry = Find(actor);
  if (entry == nullptr || entry->queue.empty()) {
    return std::nullopt;
  }
  std::pop_heap(entry->queue.begin(), entry->queue.end(), HeapCmp());
  const uint32_t slot = entry->queue.back().store_slot;
  entry->queue.pop_back();
  std::optional<ReadyWindow> out(std::move(store_[slot]));
  free_slots_.push_back(slot);
  queued_events_ -= std::min(queued_events_, out->window.events.size());
  return out;
}

Actor* AbstractScheduler::GetNextActor() {
  // Source readiness depends on the clock; refresh source states first.
  for (Entry& entry : entries_) {
    if (entry.is_source) {
      RecomputeState(&entry);
    }
  }

  // Regular-interval source dispatch: every `source_interval_` internal
  // firings, a source with pending data runs next (round-robin among
  // sources), smoothing the flow of data into the workflow.
  if (source_interval_ > 0 &&
      internal_firings_since_source_ >=
          static_cast<uint64_t>(source_interval_)) {
    const size_t n = entries_.size();
    for (size_t k = 0; k < n; ++k) {
      Entry& entry = entries_[(source_rr_cursor_ + k) % n];
      if (entry.is_source && SourceHasData(entry)) {
        source_rr_cursor_ = (source_rr_cursor_ + k + 1) % n;
        return entry.actor;
      }
    }
  }

  Entry* best = nullptr;
  for (Entry& entry : entries_) {
    if (entry.state != ActorState::kActive) {
      continue;
    }
    if (best == nullptr || HigherPriority(entry, *best)) {
      best = &entry;
    }
  }
  return best == nullptr ? nullptr : best->actor;
}

void AbstractScheduler::OnIterationEnd() {
  ++iterations_;
  for (Entry& entry : entries_) {
    entry.fired_this_iteration = false;
    if (BufferToNextPeriod() && !entry.period_buffer.empty()) {
      for (const QueuedWindow& w : entry.period_buffer) {
        entry.queue.push_back(w);
        std::push_heap(entry.queue.begin(), entry.queue.end(), HeapCmp());
      }
      entry.period_buffer.clear();
    }
  }
  RecomputeAllStates();
}

void AbstractScheduler::OnInputAttached(const Actor* actor) {
  Entry* entry = Find(actor);
  CWF_CHECK_MSG(entry != nullptr,
                "OnInputAttached for unregistered actor " << actor->name());
  entry->is_source = false;
  RecomputeState(entry);
}

void AbstractScheduler::OnActorFired(Actor* actor,
                                     const FiringOutcome& outcome, bool fired) {
  Entry* entry = Find(actor);
  CWF_CHECK_MSG(entry != nullptr,
                "OnActorFired for unregistered actor " << actor->name());
  entry->fired_this_iteration = true;
  if (fired) {
    stats_.OnFiring(actor, outcome.cost, outcome.consumed, outcome.emitted,
                    host_->Now());
  }
  if (entry->is_source) {
    internal_firings_since_source_ = 0;
  } else {
    ++internal_firings_since_source_;
  }
  ChargeCost(entry, outcome.cost);
  RecomputeState(entry);
}

ActorState AbstractScheduler::GetState(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? ActorState::kInactive : entry->state;
}

size_t AbstractScheduler::QueuedWindows(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? 0 : entry->queue.size();
}

size_t AbstractScheduler::BufferedWindows(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? 0 : entry->period_buffer.size();
}

bool AbstractScheduler::HasImmediateWork() { return GetNextActor() != nullptr; }

}  // namespace cwf

#include "window/window_operator.h"

#include <algorithm>
#include <iterator>

namespace cwf {

WindowOperator::WindowOperator(WindowSpec spec)
    : spec_(std::move(spec)), group_keys_(spec_.group_by.size()) {
  Status st = spec_.Validate();
  CWF_CHECK_MSG(st.ok(), "invalid WindowSpec: " << st.ToString());
  trivial_ = spec_.IsTrivial();
  key_fields_.reserve(spec_.group_by.size());
  for (const std::string& field : spec_.group_by) {
    key_fields_.emplace_back(field);
  }
  key_scratch_.resize(key_fields_.size());
  key_layout_ = RecordLayout::Make(spec_.group_by);
}

Status WindowOperator::FindGroup(const CWEvent& event, uint32_t* id) {
  if (key_fields_.empty()) {
    if (groups_.empty()) {
      groups_.emplace_back();
    }
    *id = 0;
    return Status::OK();
  }
  if (!event.token.is_record()) {
    return Status::InvalidArgument(
        "group-by window requires record tokens, got " +
        event.token.ToString());
  }
  const RecordPtr& rec = event.token.AsRecord();
  for (size_t i = 0; i < key_fields_.size(); ++i) {
    const Value* value = key_fields_[i].Find(*rec);
    if (value == nullptr) {
      return Status::InvalidArgument("group-by field '" +
                                     key_fields_[i].name() +
                                     "' missing from " + rec->ToString());
    }
    key_scratch_[i] = value;
  }
  const auto [group, inserted] = group_keys_.Insert(
      [this](size_t i) -> const Value& { return *key_scratch_[i]; });
  if (inserted) {
    CWF_DCHECK(group == groups_.size());  // groups are never erased
    groups_.emplace_back().id = group;
  }
  *id = group;
  return Status::OK();
}

const Token& WindowOperator::KeyToken(GroupState* g) {
  if (g->group_key_token.is_nil() && !key_fields_.empty()) {
    const Value* key = group_keys_.Key(g->id);
    g->group_key_token = Token(std::make_shared<const Record>(
        key_layout_, std::vector<Value>(key, key + key_fields_.size())));
  }
  return g->group_key_token;
}

Status WindowOperator::Put(const CWEvent& event, std::vector<Window>* out) {
  if (trivial_) {
    // SingleEvent: the event is its own window and is consumed by it.
    Window w;
    w.events.push_back(event);
    out->push_back(std::move(w));
    ++windows_produced_;
    return Status::OK();
  }
  uint32_t id = 0;
  CWF_RETURN_NOT_OK(FindGroup(event, &id));
  GroupState& g = groups_[id];

  switch (spec_.unit) {
    case WindowUnit::kTuples:
      PutTuple(&g, event, out);
      break;
    case WindowUnit::kTime:
      PutTime(&g, event, out);
      UpdateDeadline(id, &g);
      break;
    case WindowUnit::kWaves:
      PutWave(&g, event, out);
      break;
  }
  return Status::OK();
}

void WindowOperator::EventQueue::Pop(size_t n) {
  std::fill_n(events_.begin() + static_cast<std::ptrdiff_t>(head_), n,
              CWEvent());
  head_ += n;
  if (head_ == events_.size()) {
    events_.clear();
    head_ = 0;
  } else if (head_ >= events_.size() - head_) {
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::vector<CWEvent> WindowOperator::EventQueue::Take() {
  events_.erase(events_.begin(),
                events_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  std::vector<CWEvent> taken = std::move(events_);
  events_.clear();
  return taken;
}

Window WindowOperator::TakeQueue(GroupState* g) {
  Window w;
  w.group_key = KeyToken(g);
  pending_ -= g->queue.size();
  g->last_window_size = g->queue.size();
  w.events = g->queue.Take();
  ++windows_produced_;
  return w;
}

Window WindowOperator::CopyQueue(GroupState* g) {
  Window w;
  w.group_key = KeyToken(g);
  w.events.assign(g->queue.begin(), g->queue.end());
  ++windows_produced_;
  return w;
}

void WindowOperator::PutTuple(GroupState* g, const CWEvent& event,
                              std::vector<Window>* out) {
  if (g->skip_next > 0) {
    // step > size: this event falls in the gap between windows and will
    // never be part of one.
    --g->skip_next;
    ++expired_;
    return;
  }
  g->queue.Push(event, g->last_window_size);
  ++pending_;
  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  if (g->queue.size() < size) {
    return;
  }
  // One event was added, so the queue holds exactly one window.
  if (spec_.delete_used_events) {
    // Consumption semantics: the produced window uses up its events.
    out->push_back(TakeQueue(g));
    return;
  }
  // Slide by `step`; whatever falls before the new window start has left
  // every future window and expires. If the step reaches past the queue
  // (step > size), remember how many upcoming events to skip.
  out->push_back(CopyQueue(g));
  const size_t drop = std::min(step, size);
  g->skip_next = step - drop;
  g->queue.Pop(drop);
  pending_ -= drop;
  expired_ += drop;
}

void WindowOperator::PutTime(GroupState* g, const CWEvent& event,
                             std::vector<Window>* out) {
  const Duration size = spec_.size;
  const Duration step = spec_.step;
  if (!g->start_set) {
    // Epoch-align the first window so tumbling minutes land on minute
    // boundaries regardless of when the first event of the group arrives.
    g->window_start =
        Timestamp((event.timestamp.micros() / step) * step);
    g->start_set = true;
  }
  for (;;) {
    if (event.timestamp < g->window_start) {
      // Straggler: before the (possibly just advanced) current window.
      ++expired_;
      return;
    }
    if (event.timestamp < g->window_start + size) {
      g->queue.Push(event, g->last_window_size);
      ++pending_;
      return;
    }
    if (g->queue.empty()) {
      // Nothing pending: fast-forward the window to cover the new event.
      const int64_t target = event.timestamp.micros();
      g->window_start = Timestamp((target / step) * step);
      // Ensure the event is inside [start, start+size).
      while (g->window_start + size <= event.timestamp) {
        g->window_start += step;
      }
      continue;
    }
    CloseTimeWindow(g, out);
  }
}

void WindowOperator::CloseTimeWindow(GroupState* g, std::vector<Window>* out) {
  g->window_start += spec_.step;
  if (g->queue.empty()) {
    return;
  }
  if (spec_.delete_used_events) {
    out->push_back(TakeQueue(g));
    return;
  }
  out->push_back(CopyQueue(g));
  size_t expired = 0;
  for (auto it = g->queue.begin();
       it != g->queue.end() && it->timestamp < g->window_start; ++it) {
    ++expired;
  }
  g->queue.Pop(expired);
  pending_ -= expired;
  expired_ += expired;
}

void WindowOperator::UpdateDeadline(uint32_t id, GroupState* g) {
  Timestamp deadline = Timestamp::Max();
  if (spec_.HasFormationDeadline() && g->start_set && !g->queue.empty()) {
    deadline = g->window_start + spec_.size + spec_.formation_timeout;
  }
  if (deadline == g->registered_deadline) {
    return;
  }
  if (g->registered_deadline != Timestamp::Max()) {
    deadline_index_.erase(g->deadline_entry);
  }
  if (deadline != Timestamp::Max()) {
    g->deadline_entry = deadline_index_.emplace(deadline, id);
  }
  g->registered_deadline = deadline;
}

void WindowOperator::PutWave(GroupState* g, const CWEvent& event,
                             std::vector<Window>* out) {
  if (g->waves == nullptr) {
    g->waves = std::make_unique<WaveState>();
  }
  WaveState& ws = *g->waves;
  // The wave an event synchronizes under is its parent tag (events t.3.1 …
  // t.3.m synchronize as sub-wave t.3); a root external event is a complete
  // singleton wave by itself.
  WaveTag wave_id =
      event.wave.depth() == 0 ? event.wave : event.wave.Parent();
  // Wave-tag monotonicity: an event may not arrive for a wave that was
  // already consumed into a produced window — it could never be
  // synchronized, and its resurrected buffer would strand forever. Pending
  // (buffered or completed-but-unwindowed) waves legitimately interleave.
  CWF_DCHECK_MSG(
      !ws.has_consumed_frontier || ws.consumed_frontier < wave_id ||
          ws.buffers.count(wave_id) > 0 ||
          std::find(ws.completed.begin(), ws.completed.end(), wave_id) !=
              ws.completed.end(),
      "wave-tag monotonicity violated: event "
          << event.wave.ToString() << " regresses behind consumed wave "
          << ws.consumed_frontier.ToString());
  auto& buffer = ws.buffers[wave_id];
  buffer.push_back(event);
  ++pending_;
  if (event.last_in_wave) {
    ws.last_serial[wave_id] =
        event.wave.depth() == 0 ? 1 : event.wave.path().back();
  }
  auto last_it = ws.last_serial.find(wave_id);
  if (last_it != ws.last_serial.end() && buffer.size() >= last_it->second) {
    ws.completed.push_back(wave_id);
    ws.last_serial.erase(last_it);
  }

  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  while (ws.completed.size() >= size) {
    Window w;
    w.group_key = KeyToken(g);
    for (size_t i = 0; i < size; ++i) {
      const auto& events = ws.buffers[ws.completed[i]];
      w.events.insert(w.events.end(), events.begin(), events.end());
    }
    out->push_back(std::move(w));
    ++windows_produced_;
    const size_t drop = spec_.delete_used_events
                            ? size
                            : std::min(step, ws.completed.size());
    for (size_t i = 0; i < drop; ++i) {
      const WaveTag& dropped = ws.completed.front();
      if (!ws.has_consumed_frontier || ws.consumed_frontier < dropped) {
        ws.consumed_frontier = dropped;
        ws.has_consumed_frontier = true;
      }
      auto buffer_it = ws.buffers.find(dropped);
      if (buffer_it != ws.buffers.end()) {
        pending_ -= buffer_it->second.size();
        if (!spec_.delete_used_events) {
          expired_ += buffer_it->second.size();
        }
        ws.buffers.erase(buffer_it);
      }
      ws.completed.pop_front();
    }
  }
}

Timestamp WindowOperator::NextDeadline() const {
  return deadline_index_.empty() ? Timestamp::Max()
                                 : deadline_index_.begin()->first;
}

void WindowOperator::OnTimeout(Timestamp now, std::vector<Window>* out) {
  if (!spec_.HasFormationDeadline()) {
    return;
  }
  while (!deadline_index_.empty() && deadline_index_.begin()->first <= now) {
    const uint32_t id = deadline_index_.begin()->second;
    CWF_DCHECK_MSG(id < groups_.size() &&
                       groups_[id].registered_deadline ==
                           deadline_index_.begin()->first,
                   "deadline entry for group " << id
                                               << " has no registered group");
    GroupState& g = groups_[id];
    while (g.start_set && !g.queue.empty() &&
           g.window_start + spec_.size + spec_.formation_timeout <= now) {
      const size_t before = out->size();
      CloseTimeWindow(&g, out);
      for (size_t i = before; i < out->size(); ++i) {
        (*out)[i].closed_by_timeout = true;
      }
    }
    UpdateDeadline(id, &g);
  }
}

void WindowOperator::Flush(std::vector<Window>* out) {
  // Ascending key order, so end-of-stream output does not depend on hash
  // layout or arrival order.
  std::vector<uint32_t> order(groups_.size());
  for (uint32_t id = 0; id < order.size(); ++id) {
    order[id] = id;
  }
  if (!key_fields_.empty()) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const size_t n = key_fields_.size();
      const Value* key_a = group_keys_.Key(a);
      const Value* key_b = group_keys_.Key(b);
      return std::lexicographical_compare(key_a, key_a + n, key_b, key_b + n);
    });
  }
  for (uint32_t id : order) {
    GroupState& g = groups_[id];
    if (spec_.unit == WindowUnit::kWaves) {
      if (g.waves == nullptr) {
        continue;
      }
      WaveState& ws = *g.waves;
      // Emit any complete-but-unwindowed waves as one final bundle.
      Window w;
      for (const WaveTag& tag : ws.completed) {
        auto& events = ws.buffers[tag];
        std::move(events.begin(), events.end(), std::back_inserter(w.events));
      }
      if (!w.events.empty()) {
        w.group_key = KeyToken(&g);
        out->push_back(std::move(w));
        ++windows_produced_;
      }
      for (const auto& [tag, events] : ws.buffers) {
        pending_ -= events.size();
      }
      ws.completed.clear();
      ws.buffers.clear();
      ws.last_serial.clear();
      continue;
    }
    if (!g.queue.empty()) {
      out->push_back(TakeQueue(&g));
    }
    UpdateDeadline(id, &g);
  }
  CWF_DCHECK_MSG(pending_ == CountPendingByWalk(),
                 "pending-event counter " << pending_ << " != walk "
                                          << CountPendingByWalk());
}

size_t WindowOperator::PendingEventCount() const {
  CWF_DCHECK_MSG(!PendingCheckDue() || pending_ == CountPendingByWalk(),
                 "pending-event counter " << pending_ << " != walk "
                                          << CountPendingByWalk());
  return pending_;
}

bool WindowOperator::PendingCheckDue() const {
  if (calls_until_check_ > 0) {
    --calls_until_check_;
    return false;
  }
  // A walk visits every group, so spacing walks at least #groups calls
  // apart keeps the cross-check at O(1) amortized per call; a fixed period
  // would make DCHECK builds quadratic again as groups accumulate.
  calls_until_check_ =
      std::max<uint64_t>(kPendingCheckPeriod, groups_.size());
  return true;
}

size_t WindowOperator::CountPendingByWalk() const {
  size_t count = 0;
  for (const GroupState& g : groups_) {
    count += g.queue.size();
    if (g.waves != nullptr) {
      for (const auto& [tag, events] : g.waves->buffers) {
        count += events.size();
      }
    }
  }
  return count;
}

}  // namespace cwf

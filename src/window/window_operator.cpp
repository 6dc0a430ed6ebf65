#include "window/window_operator.h"

#include <algorithm>

namespace cwf {

WindowOperator::WindowOperator(WindowSpec spec) : spec_(std::move(spec)) {
  Status st = spec_.Validate();
  CWF_CHECK_MSG(st.ok(), "invalid WindowSpec: " << st.ToString());
}

Status WindowOperator::ExtractKey(const CWEvent& event, GroupKey* key,
                                  Token* key_token) const {
  key->clear();
  if (spec_.group_by.empty()) {
    *key_token = Token();
    return Status::OK();
  }
  if (!event.token.is_record()) {
    return Status::InvalidArgument(
        "group-by window requires record tokens, got " +
        event.token.ToString());
  }
  const RecordPtr& rec = event.token.AsRecord();
  auto key_rec = std::make_shared<Record>();
  for (const std::string& field : spec_.group_by) {
    auto value = rec->Get(field);
    if (!value.ok()) {
      return Status::InvalidArgument("group-by field '" + field +
                                     "' missing from " + rec->ToString());
    }
    key->push_back(value.value());
    key_rec->Set(field, std::move(value).value());
  }
  *key_token = Token(RecordPtr(std::move(key_rec)));
  return Status::OK();
}

Window WindowOperator::MakeWindow(const GroupState& g, size_t count) const {
  Window w;
  w.group_key = g.group_key_token;
  w.events.assign(g.queue.begin(), g.queue.begin() + count);
  return w;
}

Status WindowOperator::Put(const CWEvent& event, std::vector<Window>* out) {
  GroupKey key;
  Token key_token;
  CWF_RETURN_NOT_OK(ExtractKey(event, &key, &key_token));
  GroupState& g = groups_[key];
  g.group_key_token = key_token;

  switch (spec_.unit) {
    case WindowUnit::kTuples:
      PutTuple(&g, event, out);
      break;
    case WindowUnit::kTime:
      PutTime(&g, event, out);
      UpdateDeadline(key, &g);
      break;
    case WindowUnit::kWaves:
      PutWave(&g, event, out);
      break;
  }
  return Status::OK();
}

void WindowOperator::PutTuple(GroupState* g, const CWEvent& event,
                              std::vector<Window>* out) {
  if (g->skip_next > 0) {
    // step > size: this event falls in the gap between windows and will
    // never be part of one.
    --g->skip_next;
    expired_.push_back(event);
    return;
  }
  g->queue.push_back(event);
  ++pending_;
  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  while (g->queue.size() >= size) {
    out->push_back(MakeWindow(*g, size));
    ++windows_produced_;
    if (spec_.delete_used_events) {
      // Consumption semantics: the produced window uses up its events.
      g->queue.erase(g->queue.begin(), g->queue.begin() + size);
      pending_ -= size;
    } else {
      // Slide by `step`; whatever falls before the new window start has left
      // every future window and expires. If the step reaches past the queue
      // (step > size), remember how many upcoming events to skip.
      const size_t drop = std::min(step, g->queue.size());
      g->skip_next = step - drop;
      for (size_t i = 0; i < drop; ++i) {
        expired_.push_back(std::move(g->queue.front()));
        g->queue.pop_front();
      }
      pending_ -= drop;
    }
  }
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
      expired_.push_back(event);
      return;
    }
    if (event.timestamp < g->window_start + size) {
      g->queue.push_back(event);
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
  if (!g->queue.empty()) {
    out->push_back(MakeWindow(*g, g->queue.size()));
    ++windows_produced_;
  }
  g->window_start += spec_.step;
  if (spec_.delete_used_events) {
    pending_ -= g->queue.size();
    g->queue.clear();
  } else {
    while (!g->queue.empty() &&
           g->queue.front().timestamp < g->window_start) {
      expired_.push_back(std::move(g->queue.front()));
      g->queue.pop_front();
      --pending_;
    }
  }
}

void WindowOperator::UpdateDeadline(const GroupKey& key, GroupState* g) {
  Timestamp deadline = Timestamp::Max();
  if (spec_.unit == WindowUnit::kTime && spec_.formation_timeout >= 0 &&
      g->start_set && !g->queue.empty()) {
    deadline = g->window_start + spec_.size + spec_.formation_timeout;
  }
  if (deadline == g->registered_deadline) {
    return;
  }
  if (g->registered_deadline != Timestamp::Max()) {
    auto range = deadline_index_.equal_range(g->registered_deadline);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == key) {
        deadline_index_.erase(it);
        break;
      }
    }
  }
  if (deadline != Timestamp::Max()) {
    deadline_index_.emplace(deadline, key);
  }
  g->registered_deadline = deadline;
}

void WindowOperator::PutWave(GroupState* g, const CWEvent& event,
                             std::vector<Window>* out) {
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
      !g->has_consumed_frontier || g->consumed_wave_frontier < wave_id ||
          g->wave_buffers.count(wave_id) > 0 ||
          std::find(g->completed_waves.begin(), g->completed_waves.end(),
                    wave_id) != g->completed_waves.end(),
      "wave-tag monotonicity violated: event "
          << event.wave.ToString() << " regresses behind consumed wave "
          << g->consumed_wave_frontier.ToString());
  auto& buffer = g->wave_buffers[wave_id];
  buffer.push_back(event);
  ++pending_;
  if (event.last_in_wave) {
    g->wave_last_serial[wave_id] =
        event.wave.depth() == 0 ? 1 : event.wave.path().back();
  }
  auto last_it = g->wave_last_serial.find(wave_id);
  if (last_it != g->wave_last_serial.end() &&
      buffer.size() >= last_it->second) {
    g->completed_waves.push_back(wave_id);
    g->wave_last_serial.erase(last_it);
  }

  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  while (g->completed_waves.size() >= size) {
    Window w;
    w.group_key = g->group_key_token;
    for (size_t i = 0; i < size; ++i) {
      const auto& events = g->wave_buffers[g->completed_waves[i]];
      w.events.insert(w.events.end(), events.begin(), events.end());
    }
    out->push_back(std::move(w));
    ++windows_produced_;
    const size_t drop =
        spec_.delete_used_events ? size
                                 : std::min(step, g->completed_waves.size());
    for (size_t i = 0; i < drop; ++i) {
      const WaveTag& dropped = g->completed_waves.front();
      if (!g->has_consumed_frontier || g->consumed_wave_frontier < dropped) {
        g->consumed_wave_frontier = dropped;
        g->has_consumed_frontier = true;
      }
      auto buffer_it = g->wave_buffers.find(dropped);
      if (buffer_it != g->wave_buffers.end()) {
        pending_ -= buffer_it->second.size();
        if (!spec_.delete_used_events) {
          expired_.insert(expired_.end(), buffer_it->second.begin(),
                          buffer_it->second.end());
        }
        g->wave_buffers.erase(buffer_it);
      }
      g->completed_waves.pop_front();
    }
  }
}

Timestamp WindowOperator::NextDeadline() const {
  return deadline_index_.empty() ? Timestamp::Max()
                                 : deadline_index_.begin()->first;
}

void WindowOperator::OnTimeout(Timestamp now, std::vector<Window>* out) {
  if (spec_.unit != WindowUnit::kTime || spec_.formation_timeout < 0) {
    return;
  }
  while (!deadline_index_.empty() && deadline_index_.begin()->first <= now) {
    const GroupKey key = deadline_index_.begin()->second;
    GroupState& g = groups_[key];
    while (g.start_set && !g.queue.empty() &&
           g.window_start + spec_.size + spec_.formation_timeout <= now) {
      const size_t before = out->size();
      CloseTimeWindow(&g, out);
      for (size_t i = before; i < out->size(); ++i) {
        (*out)[i].closed_by_timeout = true;
      }
    }
    UpdateDeadline(key, &g);
  }
}

void WindowOperator::Flush(std::vector<Window>* out) {
  for (auto& [key, g] : groups_) {
    if (spec_.unit == WindowUnit::kWaves) {
      // Emit any complete-but-unwindowed waves as one final bundle.
      Window w;
      w.group_key = g.group_key_token;
      for (const WaveTag& tag : g.completed_waves) {
        auto& events = g.wave_buffers[tag];
        w.events.insert(w.events.end(), events.begin(), events.end());
      }
      if (!w.events.empty()) {
        out->push_back(std::move(w));
        ++windows_produced_;
      }
      for (const auto& [tag, events] : g.wave_buffers) {
        pending_ -= events.size();
      }
      g.completed_waves.clear();
      g.wave_buffers.clear();
      g.wave_last_serial.clear();
      continue;
    }
    if (!g.queue.empty()) {
      out->push_back(MakeWindow(g, g.queue.size()));
      ++windows_produced_;
      pending_ -= g.queue.size();
      g.queue.clear();
    }
    UpdateDeadline(key, &g);
  }
  CWF_DCHECK_MSG(pending_ == CountPendingByWalk(),
                 "pending-event counter " << pending_ << " != walk "
                                          << CountPendingByWalk());
}

std::vector<CWEvent> WindowOperator::DrainExpired() {
  std::vector<CWEvent> out;
  out.swap(expired_);
  return out;
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
  for (const auto& [key, g] : groups_) {
    count += g.queue.size();
    for (const auto& [tag, events] : g.wave_buffers) {
      count += events.size();
    }
  }
  return count;
}

}  // namespace cwf

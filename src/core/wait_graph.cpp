#include "core/wait_graph.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "core/actor.h"
#include "core/receiver.h"

#ifdef CWF_OBS_ENABLED
#include "obs/metrics.h"
#endif

namespace cwf {

namespace {

thread_local const Actor* t_current_actor = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// DeadlockEdge / DeadlockReport rendering
// ---------------------------------------------------------------------------

std::string DeadlockEdge::ToString() const {
  std::ostringstream oss;
  oss << waiter_name << (put_blocked ? " -blocked put-> " : " -blocked get-> ")
      << waits_on_name << " on '" << channel << "' ";
  if (put_blocked) {
    oss << "(capacity " << capacity << ", full)";
  } else {
    oss << "(no ready window)";
  }
  return oss.str();
}

std::string DeadlockReport::CycleString() const {
  std::ostringstream oss;
  for (size_t i = 0; i < cycle.size(); ++i) {
    oss << cycle[i].waiter_name << " -> ";
  }
  if (!cycle.empty()) {
    oss << cycle.front().waiter_name;
  }
  return oss.str();
}

std::string DeadlockReport::ToString() const {
  std::ostringstream oss;
  oss << "artificial deadlock: channel wait-for cycle " << CycleString()
      << ":\n";
  for (const DeadlockEdge& edge : cycle) {
    oss << "  " << edge.ToString() << "\n";
  }
  oss << "unable to progress:";
  for (size_t i = 0; i < dead_names.size(); ++i) {
    oss << (i == 0 ? " " : ", ") << dead_names[i];
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// EvaluateWaitGraph
// ---------------------------------------------------------------------------

DeadlockReport EvaluateWaitGraph(const std::vector<WaitNode>& blocked) {
  DeadlockReport report;
  std::map<const Actor*, const WaitNode*> nodes;
  for (const WaitNode& node : blocked) {
    // A get-node with no awaited ports waits on nothing: treat as live.
    if (!node.put_blocked && node.get_ports.empty()) {
      continue;
    }
    nodes[node.actor] = &node;
  }

  // Least fixpoint of "live": start from "every blocked actor may be dead"
  // and repeatedly mark actors live when what they wait on is live. An
  // actor not in the snapshot is live (it can run).
  std::set<const Actor*> live;
  const auto is_live = [&](const Actor* a) {
    return nodes.find(a) == nodes.end() || live.count(a) > 0;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [actor, node] : nodes) {
      if (live.count(actor) > 0) {
        continue;
      }
      bool now_live;
      if (node->put_blocked) {
        // The deposit resumes only when the (single) full channel drains,
        // i.e. when its consumer makes progress.
        now_live = true;
        for (const WaitTarget& t : node->put_targets) {
          now_live = now_live && is_live(t.actor);
        }
      } else {
        // Every port must eventually produce a window; a port is
        // satisfiable when any alternative's producer is live.
        now_live = true;
        for (const auto& port : node->get_ports) {
          bool port_ok = false;
          for (const WaitTarget& t : port) {
            port_ok = port_ok || is_live(t.actor);
          }
          now_live = now_live && port_ok;
        }
      }
      if (now_live) {
        live.insert(actor);
        changed = true;
      }
    }
  }

  for (const auto& [actor, node] : nodes) {
    if (live.count(actor) == 0) {
      report.dead.push_back(actor);
      report.dead_names.push_back(node->actor_name);
    }
  }
  if (report.dead.empty()) {
    return report;
  }

  // Extract one witness cycle: follow, from any dead actor, a wait edge
  // that leads to another dead actor (one must exist — otherwise the
  // fixpoint would have marked the actor live). The walk closes on itself
  // within |dead| steps.
  const auto next_edge = [&](const WaitNode* node) {
    DeadlockEdge edge;
    edge.waiter = node->actor;
    edge.waiter_name = node->actor_name;
    edge.put_blocked = node->put_blocked;
    if (node->put_blocked) {
      for (const WaitTarget& t : node->put_targets) {
        if (!is_live(t.actor)) {
          edge.waits_on = t.actor;
          edge.channel = t.channel;
          edge.capacity = t.capacity;
          break;
        }
      }
    } else {
      for (const auto& port : node->get_ports) {
        bool port_dead = !port.empty();
        for (const WaitTarget& t : port) {
          port_dead = port_dead && !is_live(t.actor);
        }
        if (port_dead) {
          edge.waits_on = port.front().actor;
          edge.channel = port.front().channel;
          edge.capacity = port.front().capacity;
          break;
        }
      }
    }
    return edge;
  };

  std::vector<DeadlockEdge> path;
  std::map<const Actor*, size_t> position;
  const Actor* cursor = report.dead.front();
  while (position.find(cursor) == position.end()) {
    position[cursor] = path.size();
    const WaitNode* node = nodes.at(cursor);
    DeadlockEdge edge = next_edge(node);
    if (edge.waits_on == nullptr) {
      break;  // defensive: malformed snapshot
    }
    const auto it = nodes.find(edge.waits_on);
    edge.waits_on_name =
        it != nodes.end() ? it->second->actor_name : edge.channel;
    path.push_back(std::move(edge));
    cursor = path.back().waits_on;
  }
  if (!path.empty() && position.find(cursor) != position.end()) {
    report.cycle.assign(path.begin() + position[cursor], path.end());
  } else {
    report.cycle = std::move(path);
  }
  return report;
}

// ---------------------------------------------------------------------------
// ChannelWaitGraph
// ---------------------------------------------------------------------------

ChannelWaitGraph::~ChannelWaitGraph() {
  // Blocked actors should have unregistered when their threads joined;
  // settle the gauge anyway so a torn-down director never leaks residue.
  ScopedLock lock(mutex_);
  if (!blocked_.empty()) {
    AdjustBlockedGauge(-static_cast<int64_t>(blocked_.size()));
  }
}

void ChannelWaitGraph::Reset() {
  ScopedLock lock(mutex_);
  if (!blocked_.empty()) {
    AdjustBlockedGauge(-static_cast<int64_t>(blocked_.size()));
  }
  channels_.clear();
  blocked_.clear();
  epochs_.clear();
  ++version_;
}

void ChannelWaitGraph::RegisterChannel(const Receiver* receiver,
                                       const Actor* producer,
                                       const Actor* consumer,
                                       std::string channel) {
  ScopedLock lock(mutex_);
  channels_[receiver] = ChannelInfo{producer, consumer, std::move(channel)};
}

const Actor* ChannelWaitGraph::ProducerOf(const Receiver* receiver) const {
  ScopedLock lock(mutex_);
  const auto it = channels_.find(receiver);
  return it == channels_.end() ? nullptr : it->second.producer;
}

std::string ChannelWaitGraph::ChannelName(const Receiver* receiver) const {
  ScopedLock lock(mutex_);
  const auto it = channels_.find(receiver);
  return it == channels_.end() ? std::string("<unregistered channel>")
                               : it->second.name;
}

void ChannelWaitGraph::OnPutBlocked(const Actor* waiter,
                                    const Receiver* receiver) {
  if (waiter == nullptr) {
    return;  // external producer thread; nothing to attribute
  }
  ScopedLock lock(mutex_);
  const auto it = channels_.find(receiver);
  if (it == channels_.end()) {
    return;
  }
  WaitTarget target;
  target.actor = it->second.consumer;
  target.receiver = receiver;
  target.channel = it->second.name;
  target.capacity = receiver->capacity();
  Entry& entry = blocked_[waiter];
  const bool fresh = entry.put_targets.empty() && entry.get_ports.empty();
  entry.put_blocked = true;
  entry.get_ports.clear();
  entry.put_targets.assign(1, std::move(target));
  ++version_;
  if (fresh) {
    AdjustBlockedGauge(1);
  }
}

void ChannelWaitGraph::OnPutUnblocked(const Actor* waiter) {
  if (waiter == nullptr) {
    return;
  }
  ScopedLock lock(mutex_);
  if (blocked_.erase(waiter) > 0) {
    ++epochs_[waiter];
    ++version_;
    AdjustBlockedGauge(-1);
  }
}

void ChannelWaitGraph::OnGetBlocked(
    const Actor* waiter, std::vector<std::vector<WaitTarget>> ports) {
  if (waiter == nullptr) {
    return;
  }
  if (ports.empty()) {
    OnGetUnblocked(waiter);
    return;
  }
  ScopedLock lock(mutex_);
  Entry& entry = blocked_[waiter];
  const bool fresh = entry.put_targets.empty() && entry.get_ports.empty();
  entry.put_blocked = false;
  entry.put_targets.clear();
  entry.get_ports = std::move(ports);
  ++version_;
  if (fresh) {
    AdjustBlockedGauge(1);
  }
}

void ChannelWaitGraph::OnGetUnblocked(const Actor* waiter) {
  if (waiter == nullptr) {
    return;
  }
  ScopedLock lock(mutex_);
  if (blocked_.erase(waiter) > 0) {
    ++epochs_[waiter];
    ++version_;
    AdjustBlockedGauge(-1);
  }
}

size_t ChannelWaitGraph::BlockedCount() const {
  ScopedLock lock(mutex_);
  return blocked_.size();
}

uint64_t ChannelWaitGraph::Version() const {
  ScopedLock lock(mutex_);
  return version_;
}

std::vector<WaitNode> ChannelWaitGraph::Snapshot() const {
  ScopedLock lock(mutex_);
  std::vector<WaitNode> nodes;
  nodes.reserve(blocked_.size());
  for (const auto& [actor, entry] : blocked_) {
    WaitNode node;
    node.actor = actor;
    node.actor_name = actor->name();
    node.put_blocked = entry.put_blocked;
    node.put_targets = entry.put_targets;
    node.get_ports = entry.get_ports;
    const auto it = epochs_.find(actor);
    node.epoch = it == epochs_.end() ? 0 : it->second;
    nodes.push_back(std::move(node));
  }
  return nodes;
}

void ChannelWaitGraph::SetReportHandlerForTest(ReportHandler handler) {
  ScopedLock lock(mutex_);
  report_handler_ = std::move(handler);
}

void ChannelWaitGraph::InvokeReportHandler(const std::string& report) {
  ReportHandler handler;
  {
    ScopedLock lock(mutex_);
    handler = report_handler_;
  }
  if (handler) {
    handler(report);
  }
}

void ChannelWaitGraph::AdjustBlockedGauge(int64_t delta) {
#ifdef CWF_OBS_ENABLED
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().SetHelp(
        "cwf_blocked_actors",
        "Actors currently blocked on a full (put) or empty (get) channel");
    obs::MetricsRegistry::Global().GetGauge("cwf_blocked_actors")->Add(delta);
  }
#else
  (void)delta;
#endif
}

// ---------------------------------------------------------------------------
// ScopedCurrentActor
// ---------------------------------------------------------------------------

ScopedCurrentActor::ScopedCurrentActor(const Actor* actor)
    : previous_(t_current_actor) {
  t_current_actor = actor;
}

ScopedCurrentActor::~ScopedCurrentActor() { t_current_actor = previous_; }

const Actor* ScopedCurrentActor::Current() { return t_current_actor; }

std::string CurrentActorContext() {
  const Actor* actor = t_current_actor;
  if (actor == nullptr) return std::string();
  return " (while firing actor '" + actor->name() + "')";
}

}  // namespace cwf

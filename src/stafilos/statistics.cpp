#include "stafilos/statistics.h"

#include <algorithm>

namespace cwf {
namespace {

/// Update an EWMA rate estimate given `n` events at `now`.
void UpdateRate(double* rate, Timestamp* last, size_t n, Timestamp now,
                double alpha) {
  if (last->micros() == 0) {
    *last = now;
    return;
  }
  const Duration gap = now - *last;
  if (gap <= 0) {
    // Same instant: rates spike; fold in with a small nominal gap.
    return;
  }
  const double instant =
      static_cast<double>(n) / (static_cast<double>(gap) / 1e6);
  *rate = *rate == 0 ? instant : alpha * instant + (1 - alpha) * *rate;
  *last = now;
}

}  // namespace

void ActorStatistics::Initialize(const Workflow& workflow) {
  workflow_ = &workflow;
  stats_.assign(workflow.actors().size(), ActorStats());
  global_.assign(workflow.actors().size(), Global());
}

size_t ActorStatistics::SlotOf(const Actor* actor) const {
  CWF_CHECK_MSG(workflow_ != nullptr && Registered(actor),
                "statistics for actor '" << actor->name()
                                         << "' outside the registered workflow");
  return actor->slot();
}

void ActorStatistics::OnFiring(const Actor* actor, Duration cost,
                               size_t consumed, size_t produced,
                               Timestamp now) {
  ActorStats& s = stats_[SlotOf(actor)];
  ++s.invocations;
  s.total_cost += cost;
  s.ewma_cost = s.invocations == 1
                    ? static_cast<double>(cost)
                    : alpha_ * static_cast<double>(cost) +
                          (1 - alpha_) * s.ewma_cost;
  s.events_consumed += consumed;
  s.events_produced += produced;
  if (produced > 0) {
    UpdateRate(&s.output_rate, &s.last_output, produced, now, alpha_);
  }
}

void ActorStatistics::OnEventsArrived(const Actor* actor, size_t n,
                                      Timestamp now) {
  ActorStats& s = stats_[SlotOf(actor)];
  s.events_arrived += n;
  UpdateRate(&s.input_rate, &s.last_arrival, n, now, alpha_);
}

const ActorStats& ActorStatistics::Get(const Actor* actor) const {
  return workflow_ != nullptr && Registered(actor) ? stats_[actor->slot()]
                                                   : empty_;
}

ActorStatistics::Global ActorStatistics::ComputeGlobal(
    const Actor* actor, std::vector<Visit>* visits) {
  const size_t slot = SlotOf(actor);
  Visit& mark = (*visits)[slot];
  if (mark == Visit::kDone) {
    return global_[slot];
  }
  const ActorStats& s = stats_[slot];
  if (mark == Visit::kVisiting) {
    // Cycle: cut off conservatively with local metrics only.
    return Global{s.Selectivity(), std::max(1.0, s.AvgCostPerEvent())};
  }
  mark = Visit::kVisiting;
  const double local_sel = s.Selectivity();
  const double local_cost = std::max(1.0, s.AvgCostPerEvent());
  double down_sel = 0;
  double down_cost = 0;
  const std::vector<Actor*> downstream = workflow_->DownstreamOf(actor);
  for (const Actor* d : downstream) {
    const Global g = ComputeGlobal(d, visits);
    down_sel += g.selectivity;
    down_cost += g.cost;
  }
  Global out;
  if (downstream.empty()) {
    // Leaf = output operator: delivering a tuple to the output *is* the
    // useful work, so its path selectivity is 1 regardless of how many
    // tokens it re-emits (a sink emitting nothing would otherwise zero the
    // rate priority of its whole upstream path).
    out.selectivity = 1.0;
    out.cost = local_cost;
  } else {
    out.selectivity = local_sel * down_sel;
    out.cost = local_cost + local_sel * down_cost;
  }
  (*visits)[slot] = Visit::kDone;
  global_[slot] = out;
  return out;
}

void ActorStatistics::RecomputeGlobal() {
  CWF_CHECK_MSG(workflow_ != nullptr, "ActorStatistics not initialized");
  std::vector<Visit> visits(stats_.size(), Visit::kUnvisited);
  for (const auto& actor : workflow_->actors()) {
    ComputeGlobal(actor.get(), &visits);
  }
}

double ActorStatistics::GlobalSelectivity(const Actor* actor) const {
  return global_[SlotOf(actor)].selectivity;
}

double ActorStatistics::GlobalCost(const Actor* actor) const {
  return global_[SlotOf(actor)].cost;
}

double ActorStatistics::RatePriority(const Actor* actor) const {
  const double cost = GlobalCost(actor);
  return GlobalSelectivity(actor) / (cost <= 0 ? 1.0 : cost);
}

}  // namespace cwf

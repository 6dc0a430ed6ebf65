#include "stafilos/statistics.h"

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
  stats_.clear();
  global_.clear();
  for (const auto& actor : workflow.actors()) {
    stats_[actor.get()] = ActorStats();
  }
}

void ActorStatistics::OnFiring(const Actor* actor, Duration cost,
                               size_t consumed, size_t produced,
                               Timestamp now) {
  ActorStats& s = stats_[actor];
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
  ActorStats& s = stats_[actor];
  s.events_arrived += n;
  UpdateRate(&s.input_rate, &s.last_arrival, n, now, alpha_);
}

const ActorStats& ActorStatistics::Get(const Actor* actor) const {
  auto it = stats_.find(actor);
  return it == stats_.end() ? empty_ : it->second;
}

ActorStatistics::Global ActorStatistics::ComputeGlobal(
    const Actor* actor, std::map<const Actor*, int>* visiting) {
  auto done = global_.find(actor);
  if (done != global_.end()) {
    return done->second;
  }
  int& mark = (*visiting)[actor];
  if (mark == 1) {
    // Cycle: cut off conservatively with local metrics only.
    return Global{Get(actor).Selectivity(),
                  std::max(1.0, Get(actor).AvgCostPerEvent())};
  }
  mark = 1;
  const ActorStats& s = stats_[actor];
  const double local_sel = s.Selectivity();
  const double local_cost = std::max(1.0, s.AvgCostPerEvent());
  double down_sel = 0;
  double down_cost = 0;
  const std::vector<Actor*> downstream = workflow_->DownstreamOf(actor);
  for (const Actor* d : downstream) {
    const Global g = ComputeGlobal(d, visiting);
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
  mark = 2;
  global_[actor] = out;
  return out;
}

void ActorStatistics::RecomputeGlobal() {
  CWF_CHECK_MSG(workflow_ != nullptr, "ActorStatistics not initialized");
  global_.clear();
  std::map<const Actor*, int> visiting;
  for (const auto& actor : workflow_->actors()) {
    ComputeGlobal(actor.get(), &visiting);
  }
}

double ActorStatistics::GlobalSelectivity(const Actor* actor) const {
  auto it = global_.find(actor);
  return it == global_.end() ? 1.0 : it->second.selectivity;
}

double ActorStatistics::GlobalCost(const Actor* actor) const {
  auto it = global_.find(actor);
  return it == global_.end() ? 1.0 : it->second.cost;
}

double ActorStatistics::RatePriority(const Actor* actor) const {
  const double cost = GlobalCost(actor);
  return GlobalSelectivity(actor) / (cost <= 0 ? 1.0 : cost);
}

}  // namespace cwf

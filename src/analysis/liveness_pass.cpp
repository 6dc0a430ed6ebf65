#include "analysis/liveness_pass.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/diagnostic.h"
#include "analysis/sdf_balance.h"
#include "core/composite_actor.h"
#include "core/workflow.h"
#include "window/window_spec.h"

namespace cwf::analysis {

namespace {

// ---------------------------------------------------------------------------
// Channel model
// ---------------------------------------------------------------------------

/// Everything the analysis needs to know about one workflow channel under
/// one capacity plan.
struct ChannelModel {
  const ChannelSpec* spec = nullptr;
  const Actor* producer = nullptr;
  const Actor* consumer = nullptr;
  std::string name;     ///< "A.out -> B.in[0]"
  size_t capacity = 0;  ///< 0 = unbounded under the plan
  /// Events the consumer's window operator must absorb on an initially
  /// empty channel before the first window can possibly form.
  size_t first_window_demand = 1;
  /// Whether window formation is guaranteed once the demand is met: trivial
  /// and non-group-by tuple windows form deterministically; time windows
  /// with a non-negative formation timeout close by timer. Group-by,
  /// wave, and timeout-free time windows are data-dependent.
  bool certifiable_drain = false;
};

std::string ChannelDisplayName(const ChannelSpec& spec) {
  std::ostringstream oss;
  oss << spec.from->FullName() << " -> " << spec.to->FullName() << "["
      << spec.to_channel << "]";
  return oss.str();
}

void ClassifyWindow(const WindowSpec& spec, ChannelModel* model) {
  if (spec.IsTrivial()) {
    model->first_window_demand = 1;
    model->certifiable_drain = true;
    return;
  }
  switch (spec.unit) {
    case WindowUnit::kTuples:
      model->first_window_demand = static_cast<size_t>(spec.size);
      model->certifiable_drain = spec.group_by.empty();
      break;
    case WindowUnit::kTime:
      model->first_window_demand = 1;
      model->certifiable_drain =
          spec.group_by.empty() && spec.formation_timeout >= 0;
      break;
    case WindowUnit::kWaves:
      model->first_window_demand = 1;
      model->certifiable_drain = false;
      break;
  }
}

std::vector<ChannelModel> BuildChannelModels(const Workflow& workflow,
                                             const CapacityPlan& plan) {
  std::vector<ChannelModel> models;
  models.reserve(workflow.channels().size());
  for (const ChannelSpec& spec : workflow.channels()) {
    ChannelModel model;
    model.spec = &spec;
    model.producer = spec.from->actor();
    model.consumer = spec.to->actor();
    model.name = ChannelDisplayName(spec);
    model.capacity = plan.CapacityFor(spec.to->FullName(), spec.to_channel);
    ClassifyWindow(spec.to->spec(), &model);
    models.push_back(std::move(model));
  }
  return models;
}

// ---------------------------------------------------------------------------
// Blocking-interpretation analysis
// ---------------------------------------------------------------------------

struct BlockingAnalysis {
  LivenessVerdict verdict = LivenessVerdict::kUnknown;
  std::string method;
  DeadlockReport witness;
  std::vector<std::string> notes;
  /// Channels whose capacity is below the first-window demand
  /// (channel-model index, required capacity) — synthesis targets.
  std::vector<std::pair<size_t, size_t>> demand_violations;
  /// Channel-model indices full in a stuck simulation state — synthesis
  /// bumps these when no demand violation explains the deadlock.
  std::vector<size_t> stuck_full_channels;
};

/// Phase A: a bounded channel whose capacity cannot even hold the
/// consumer's first window never forms one, so under sustained inflow the
/// producer's Put blocks forever (CWF6002). The witness is the 2-cycle
/// producer -put-> consumer -get-> producer on the same channel.
bool CheckFirstWindowDemand(const std::vector<ChannelModel>& channels,
                            BlockingAnalysis* out) {
  for (size_t i = 0; i < channels.size(); ++i) {
    const ChannelModel& ch = channels[i];
    if (ch.capacity > 0 && ch.capacity < ch.first_window_demand) {
      out->demand_violations.emplace_back(i, ch.first_window_demand);
      std::ostringstream oss;
      oss << "channel '" << ch.name << "' capacity " << ch.capacity
          << " is below the consumer's first-window demand of "
          << ch.first_window_demand
          << " events: no window can ever form, so under sustained inflow "
             "the producer blocks forever";
      out->notes.push_back(oss.str());
    }
  }
  if (out->demand_violations.empty()) {
    return false;
  }
  out->verdict = LivenessVerdict::kProvablyDeadlocking;
  out->method = "channel-demand";
  const ChannelModel& ch = channels[out->demand_violations.front().first];
  DeadlockEdge put;
  put.waiter = ch.producer;
  put.waiter_name = ch.producer->name();
  put.waits_on = ch.consumer;
  put.waits_on_name = ch.consumer->name();
  put.put_blocked = true;
  put.channel = ch.name;
  put.capacity = ch.capacity;
  DeadlockEdge get;
  get.waiter = ch.consumer;
  get.waiter_name = ch.consumer->name();
  get.waits_on = ch.producer;
  get.waits_on_name = ch.producer->name();
  get.put_blocked = false;
  get.channel = ch.name;
  get.capacity = ch.capacity;
  out->witness.cycle = {put, get};
  out->witness.dead = {ch.producer, ch.consumer};
  out->witness.dead_names = {ch.producer->name(), ch.consumer->name()};
  return true;
}

// ---- Bounded-execution simulation (Geilen–Basten style) ----

/// Mirror of the tuple window operator's per-channel counters
/// (window/window_operator.cpp, PutTuple): `queue` buffered-but-unwindowed
/// events, `ready` produced windows awaiting the consumer, `skip` upcoming
/// events that fall in a step>size gap. QueueDepth == queue + ready.
struct SimChannel {
  bool trivial = false;
  int64_t size = 1;
  int64_t step = 1;
  bool delete_used = false;
  size_t capacity = 0;  ///< 0 = unbounded
  int64_t consume_per_firing = 1;  ///< windows the consumer pops per firing

  int64_t queue = 0;
  int64_t ready = 0;
  int64_t skip = 0;

  int64_t depth() const { return queue + ready; }
  bool AtCapacity() const {
    return capacity > 0 && depth() >= static_cast<int64_t>(capacity);
  }

  void Deposit() {
    if (trivial) {
      ++ready;
      return;
    }
    if (skip > 0) {
      --skip;  // gap event: expires without entering any window
      return;
    }
    ++queue;
    while (queue >= size) {
      ++ready;
      if (delete_used) {
        queue -= size;
      } else {
        const int64_t drop = std::min(step, queue);
        queue -= drop;
        skip = step - drop;
      }
    }
  }
};

struct SimState {
  std::vector<SimChannel> channels;  ///< parallel to the channel models
  std::vector<int64_t> firings;      ///< per actor (workflow order)
  /// In-progress firing: channel indices still awaiting their deposit, in
  /// runtime broadcast order. Non-empty = the actor is mid-Put.
  std::vector<std::vector<size_t>> pending;
};

/// Whether the graph is exact enough to simulate: integer balance
/// equations solve, no composites, and every connected input port is a
/// single-channel tuple-unit (or trivial) non-group-by port, so the
/// simulator's window mirror is faithful.
bool SimulationEligible(const Workflow& workflow,
                        const std::vector<ChannelModel>& channels,
                        std::map<const Actor*, int64_t>* repetitions,
                        std::string* why_not) {
  for (const auto& actor : workflow.actors()) {
    if (dynamic_cast<const CompositeActor*>(actor.get()) != nullptr) {
      *why_not = "composite actor '" + actor->name() +
                 "' has unmodeled inner buffering";
      return false;
    }
  }
  std::map<const InputPort*, int> port_channels;
  for (const ChannelModel& ch : channels) {
    ++port_channels[ch.spec->to];
  }
  for (const auto& [port, count] : port_channels) {
    if (count > 1) {
      *why_not = "fan-in port " + port->FullName() +
                 " has schedule-dependent consumption";
      return false;
    }
    const WindowSpec& spec = port->spec();
    if (!spec.Validate().ok()) {
      // CWF1002: a non-positive size or step never forms (or never leaves)
      // a window, so the simulated window operator would not terminate.
      *why_not = "port " + port->FullName() + " has an invalid window (" +
                 spec.ToString() + ")";
      return false;
    }
    if (!spec.IsTrivial() &&
        (spec.unit != WindowUnit::kTuples || !spec.group_by.empty())) {
      *why_not = "port " + port->FullName() +
                 " has a data-dependent window (" + spec.ToString() + ")";
      return false;
    }
  }
  auto solved = SolveSdfRepetitions(workflow);
  if (!solved.ok()) {
    *why_not = "balance equations: " + solved.status().message();
    return false;
  }
  *repetitions = std::move(solved).value();
  return true;
}

/// Simulate fair greedy bounded execution. Returns kProvablyLive when a
/// complete channel state recurs with every actor having advanced an exact
/// multiple of its repetition count (the execution is then periodic and
/// runs forever), kProvablyDeadlocking when no actor can fire and no
/// blocked deposit can proceed, kUnknown when the step budget runs out
/// (e.g. unbounded channels absorbing a dead subgraph's backlog forever).
LivenessVerdict SimulateBoundedExecution(
    const Workflow& workflow, const std::vector<ChannelModel>& channels,
    const std::map<const Actor*, int64_t>& repetitions,
    BlockingAnalysis* out) {
  const auto& actors = workflow.actors();
  std::map<const Actor*, size_t> actor_index;
  for (size_t i = 0; i < actors.size(); ++i) {
    actor_index[actors[i].get()] = i;
  }

  SimState st;
  st.firings.assign(actors.size(), 0);
  st.pending.assign(actors.size(), {});
  st.channels.reserve(channels.size());
  for (const ChannelModel& ch : channels) {
    SimChannel sim;
    const WindowSpec& spec = ch.spec->to->spec();
    sim.trivial = spec.IsTrivial();
    sim.size = spec.size;
    sim.step = spec.step;
    sim.delete_used = spec.delete_used_events;
    sim.capacity = ch.capacity;
    sim.consume_per_firing =
        ch.consumer->ConsumptionRate(ch.spec->to);
    st.channels.push_back(sim);
  }

  // Per-actor channel wiring, in runtime order: inputs per connected port,
  // outputs as the broadcast sequence one firing deposits (port declaration
  // order, one deposit per event per channel of the port).
  std::vector<std::vector<size_t>> in_channels(actors.size());
  std::vector<std::vector<size_t>> out_sequence(actors.size());
  for (size_t i = 0; i < actors.size(); ++i) {
    const Actor* actor = actors[i].get();
    for (const auto& port : actor->input_ports()) {
      for (size_t c = 0; c < channels.size(); ++c) {
        if (channels[c].spec->to == port.get()) {
          in_channels[i].push_back(c);
        }
      }
    }
    for (const auto& port : actor->output_ports()) {
      std::vector<size_t> port_channels;
      for (size_t c = 0; c < channels.size(); ++c) {
        if (channels[c].spec->from == port.get()) {
          port_channels.push_back(c);
        }
      }
      if (port_channels.empty()) {
        continue;
      }
      const int64_t rate = actor->ProductionRate(port.get());
      for (int64_t e = 0; e < rate; ++e) {
        for (size_t c : port_channels) {
          out_sequence[i].push_back(c);
        }
      }
    }
  }

  std::vector<int64_t> reps(actors.size(), 1);
  int64_t total_reps = 0;
  for (size_t i = 0; i < actors.size(); ++i) {
    const auto it = repetitions.find(actors[i].get());
    reps[i] = it == repetitions.end() ? 1 : std::max<int64_t>(1, it->second);
    total_reps += reps[i];
  }

  const auto can_fire = [&](size_t i) {
    if (!st.pending[i].empty()) {
      return false;  // still mid-broadcast from the previous firing
    }
    for (size_t c : in_channels[i]) {
      if (st.channels[c].ready < st.channels[c].consume_per_firing) {
        return false;
      }
    }
    return true;
  };

  const auto flush_pending = [&](size_t i) {
    bool progressed = false;
    auto& queue = st.pending[i];
    while (!queue.empty()) {
      SimChannel& ch = st.channels[queue.front()];
      if (ch.AtCapacity()) {
        break;
      }
      ch.Deposit();
      queue.erase(queue.begin());
      progressed = true;
    }
    return progressed;
  };

  // Stable-state recurrence: channel counters at instants where no deposit
  // is in flight, keyed to the firing counts observed there. A repeat with
  // a firing delta equal to lambda * repetitions (lambda >= 1) certifies a
  // periodic schedule.
  using ChannelKey = std::vector<int64_t>;
  std::map<ChannelKey, std::vector<std::vector<int64_t>>> seen;
  const auto channel_key = [&]() {
    ChannelKey key;
    key.reserve(st.channels.size() * 3);
    for (const SimChannel& ch : st.channels) {
      key.push_back(ch.queue);
      key.push_back(ch.ready);
      key.push_back(ch.skip);
    }
    return key;
  };
  const auto periodic = [&](const std::vector<int64_t>& then) {
    int64_t lambda = -1;
    for (size_t i = 0; i < reps.size(); ++i) {
      const int64_t delta = st.firings[i] - then[i];
      if (delta < 0 || delta % reps[i] != 0) {
        return false;
      }
      const int64_t k = delta / reps[i];
      if (lambda == -1) {
        lambda = k;
      } else if (k != lambda) {
        return false;
      }
    }
    return lambda >= 1;
  };

  const int64_t max_steps = 10000 + 64 * total_reps;
  for (int64_t step = 0; step < max_steps; ++step) {
    // Stable instant: record / check recurrence.
    bool stable = true;
    for (const auto& queue : st.pending) {
      stable = stable && queue.empty();
    }
    if (stable) {
      auto& counts = seen[channel_key()];
      for (const auto& then : counts) {
        if (periodic(then)) {
          std::ostringstream oss;
          oss << "bounded-execution simulation reached a periodic state "
                 "after "
              << std::accumulate(st.firings.begin(), st.firings.end(),
                                 int64_t{0})
              << " firings";
          out->notes.push_back(oss.str());
          return LivenessVerdict::kProvablyLive;
        }
      }
      counts.push_back(st.firings);
    }

    bool progressed = false;
    for (size_t i = 0; i < actors.size(); ++i) {
      if (!st.pending[i].empty()) {
        progressed = flush_pending(i) || progressed;
      }
    }
    // Fire the most-lagging enabled actor (fairness lets warm-up
    // transients fill while keeping the steady state balanced).
    size_t best = actors.size();
    double best_lag = 0.0;
    for (size_t i = 0; i < actors.size(); ++i) {
      if (!can_fire(i)) {
        continue;
      }
      const double lag =
          static_cast<double>(st.firings[i]) / static_cast<double>(reps[i]);
      if (best == actors.size() || lag < best_lag) {
        best = i;
        best_lag = lag;
      }
    }
    if (best != actors.size()) {
      for (size_t c : in_channels[best]) {
        st.channels[c].ready -= st.channels[c].consume_per_firing;
      }
      ++st.firings[best];
      st.pending[best] = out_sequence[best];
      flush_pending(best);
      progressed = true;
    }
    if (progressed) {
      continue;
    }

    // Globally stuck: no actor can fire, no deposit can proceed. Build the
    // wait snapshot and let the shared evaluator extract the witness.
    std::vector<WaitNode> blocked;
    for (size_t i = 0; i < actors.size(); ++i) {
      const Actor* actor = actors[i].get();
      WaitNode node;
      node.actor = actor;
      node.actor_name = actor->name();
      if (!st.pending[i].empty()) {
        const ChannelModel& ch = channels[st.pending[i].front()];
        node.put_blocked = true;
        WaitTarget target;
        target.actor = ch.consumer;
        target.channel = ch.name;
        target.capacity = ch.capacity;
        node.put_targets.push_back(std::move(target));
        out->stuck_full_channels.push_back(st.pending[i].front());
        blocked.push_back(std::move(node));
        continue;
      }
      if (in_channels[i].empty()) {
        continue;  // a source that cannot fire is mid-deposit, handled above
      }
      node.put_blocked = false;
      for (size_t c : in_channels[i]) {
        if (st.channels[c].ready >= st.channels[c].consume_per_firing) {
          continue;
        }
        WaitTarget target;
        target.actor = channels[c].producer;
        target.channel = channels[c].name;
        target.capacity = channels[c].capacity;
        node.get_ports.push_back({std::move(target)});
      }
      if (!node.get_ports.empty()) {
        blocked.push_back(std::move(node));
      }
    }
    out->witness = EvaluateWaitGraph(blocked);
    std::ostringstream oss;
    oss << "simulation stuck after "
        << std::accumulate(st.firings.begin(), st.firings.end(), int64_t{0})
        << " firings: no actor can fire and no blocked deposit can proceed";
    out->notes.push_back(oss.str());
    return LivenessVerdict::kProvablyDeadlocking;
  }
  out->notes.push_back(
      "simulation found no periodic state within its step budget");
  return LivenessVerdict::kUnknown;
}

/// Conservative classification for graphs the simulator cannot model
/// exactly: every bounded channel must meet its first-window demand (phase
/// A already ran), drain certifiably, and sit off every undirected cycle
/// (on a cycle, warm-up skew between branches can wedge a join even when
/// each channel is individually safe).
LivenessVerdict ClassifyStructurally(const std::vector<ChannelModel>& channels,
                                     BlockingAnalysis* out) {
  std::vector<size_t> bounded;
  for (size_t i = 0; i < channels.size(); ++i) {
    if (channels[i].capacity > 0) {
      bounded.push_back(i);
    }
  }
  if (bounded.empty()) {
    out->method = "no bounded channels";
    out->notes.push_back(
        "no channel has a capacity bound: puts never block");
    return LivenessVerdict::kProvablyLive;
  }

  // Undirected-cycle test per channel: drop the channel, union the rest;
  // endpoints still connected => the channel closes a cycle.
  const auto on_undirected_cycle = [&](size_t skip) {
    std::map<const Actor*, const Actor*> parent;
    const std::function<const Actor*(const Actor*)> find =
        [&](const Actor* a) -> const Actor* {
      auto it = parent.find(a);
      if (it == parent.end() || it->second == a) {
        parent[a] = a;
        return a;
      }
      return parent[a] = find(it->second);
    };
    for (size_t i = 0; i < channels.size(); ++i) {
      if (i == skip) {
        continue;
      }
      parent[find(channels[i].producer)] = find(channels[i].consumer);
    }
    return find(channels[skip].producer) == find(channels[skip].consumer);
  };

  bool all_safe = true;
  for (size_t i : bounded) {
    const ChannelModel& ch = channels[i];
    if (!ch.certifiable_drain) {
      all_safe = false;
      out->notes.push_back("channel '" + ch.name +
                           "' has data-dependent window formation (" +
                           ch.spec->to->spec().ToString() + ")");
    } else if (on_undirected_cycle(i)) {
      all_safe = false;
      out->notes.push_back(
          "bounded channel '" + ch.name +
          "' lies on an undirected cycle: branch warm-up skew is not "
          "excluded");
    }
  }
  if (all_safe) {
    out->method = "structural";
    out->notes.push_back(
        "every bounded channel meets its first-window demand, drains "
        "certifiably and lies on no undirected cycle");
    return LivenessVerdict::kProvablyLive;
  }
  out->method = "conservative";
  return LivenessVerdict::kUnknown;
}

BlockingAnalysis AnalyzeBlocking(const Workflow& workflow,
                                 const CapacityPlan& plan) {
  BlockingAnalysis out;
  const std::vector<ChannelModel> channels =
      BuildChannelModels(workflow, plan);
  if (channels.empty()) {
    out.verdict = LivenessVerdict::kProvablyLive;
    out.method = "no channels";
    return out;
  }
  if (CheckFirstWindowDemand(channels, &out)) {
    return out;
  }
  std::map<const Actor*, int64_t> repetitions;
  std::string why_not;
  if (SimulationEligible(workflow, channels, &repetitions, &why_not)) {
    out.method = "sdf-simulation";
    out.verdict =
        SimulateBoundedExecution(workflow, channels, repetitions, &out);
    if (out.verdict != LivenessVerdict::kUnknown) {
      return out;
    }
  } else {
    out.notes.push_back("not exactly simulable: " + why_not);
  }
  out.verdict = ClassifyStructurally(channels, &out);
  return out;
}

void AppendJsonString(std::ostringstream& oss, const std::string& s) {
  oss << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      oss << '\\' << c;
    } else if (c == '\n') {
      oss << "\\n";
    } else {
      oss << c;
    }
  }
  oss << '"';
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

const char* LivenessVerdictName(LivenessVerdict verdict) {
  switch (verdict) {
    case LivenessVerdict::kProvablyLive:
      return "provably-live";
    case LivenessVerdict::kProvablyDeadlocking:
      return "provably-deadlocking";
    case LivenessVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

LivenessReport AnalyzeLiveness(const Workflow& workflow,
                               const AnalysisOptions& options,
                               const CapacityPlan& plan) {
  LivenessReport report;
  report.workflow = workflow.name();
  report.director = options.target_director;
  // Only the PNCWF deployment enforces plan bounds with blocking puts
  // (Director::planned_overflow_policy); everywhere else the bounds stay
  // advisory and an artificial deadlock cannot occur. An unspecified
  // target is analyzed as-if blocking (conservative).
  report.blocking_deployment = options.target_director.empty() ||
                               options.target_director == "PNCWF";

  BlockingAnalysis blocking = AnalyzeBlocking(workflow, plan);
  report.blocking_verdict = blocking.verdict;
  report.blocking_method = blocking.method;
  report.witness = std::move(blocking.witness);
  report.notes = std::move(blocking.notes);
  if (report.blocking_deployment) {
    report.verdict = report.blocking_verdict;
    report.method = report.blocking_method;
  } else {
    report.verdict = LivenessVerdict::kProvablyLive;
    report.method = "non-blocking deployment";
    report.notes.insert(
        report.notes.begin(),
        "capacity bounds are advisory under " + report.director +
            " (overflow policy kUnbounded): puts never block");
  }
  return report;
}

LivenessReport SynthesizeLiveCapacities(const Workflow& workflow,
                                        const AnalysisOptions& options,
                                        CapacityPlan* plan) {
  const auto bump = [&](size_t channel_index, size_t to_capacity,
                        const std::string& reason,
                        const std::vector<ChannelModel>& channels) {
    const ChannelModel& ch = channels[channel_index];
    for (ChannelCapacity& cap : plan->channels) {
      if (cap.consumer == ch.spec->to->FullName() &&
          cap.to_channel == ch.spec->to_channel && cap.bounded &&
          cap.capacity < to_capacity) {
        CapacityBump record;
        record.channel = ch.name;
        record.consumer = cap.consumer;
        record.to_channel = cap.to_channel;
        record.from_capacity = cap.capacity;
        record.to_capacity = to_capacity;
        record.reason = reason;
        cap.capacity = to_capacity;
        plan->liveness_bumps.push_back(std::move(record));
        return true;
      }
    }
    return false;
  };

  // Iterate: re-analyze, repair the provable deadlock the analysis names,
  // until live/unknown or nothing left to raise. Demand violations jump
  // straight to the first-window demand; simulation witnesses grow each
  // full channel of the stuck state by one and retry (Parks-style minimal
  // relaxation).
  for (int round = 0; round < 64; ++round) {
    BlockingAnalysis blocking = AnalyzeBlocking(workflow, *plan);
    if (blocking.verdict != LivenessVerdict::kProvablyDeadlocking) {
      break;
    }
    const std::vector<ChannelModel> channels =
        BuildChannelModels(workflow, *plan);
    bool repaired = false;
    for (const auto& [index, demand] : blocking.demand_violations) {
      repaired = bump(index, demand,
                      "first-window demand " + std::to_string(demand),
                      channels) ||
                 repaired;
    }
    if (!repaired) {
      std::set<size_t> full(blocking.stuck_full_channels.begin(),
                            blocking.stuck_full_channels.end());
      for (size_t index : full) {
        repaired = bump(index, channels[index].capacity + 1,
                        "simulation deadlock witness", channels) ||
                   repaired;
      }
    }
    if (!repaired) {
      break;  // nothing raisable explains the deadlock; report it as-is
    }
  }

  LivenessReport report = AnalyzeLiveness(workflow, options, *plan);
  plan->liveness_verdict = LivenessVerdictName(report.verdict);
  plan->liveness_method = report.method;
  plan->liveness_witness =
      report.witness.empty() ? "" : report.witness.CycleString();
  return report;
}

void ReportLiveness(const LivenessReport& report,
                    const AnalysisOptions& options,
                    DiagnosticBag* diagnostics) {
  if (!report.blocking_deployment) {
    return;  // bounds advisory: provably live by construction
  }
  const Actor* anchor =
      report.witness.cycle.empty() ? nullptr : report.witness.cycle[0].waiter;
  const std::string location =
      ActorLocation(options, anchor != nullptr ? anchor->name() : "");
  switch (report.verdict) {
    case LivenessVerdict::kProvablyLive:
      return;
    case LivenessVerdict::kProvablyDeadlocking: {
      std::ostringstream oss;
      oss << report.witness.ToString();
      for (const std::string& note : report.notes) {
        oss << "\n  note: " << note;
      }
      diagnostics->Error(
          report.method == "channel-demand" ? "CWF6002" : "CWF6001",
          location, oss.str(), anchor);
      return;
    }
    case LivenessVerdict::kUnknown: {
      std::ostringstream oss;
      oss << "liveness under blocking backpressure not established";
      for (const std::string& note : report.notes) {
        oss << "\n  note: " << note;
      }
      diagnostics->Note("CWF6003", location, oss.str(), nullptr);
      return;
    }
  }
}

void LivenessPass::Run(const Workflow& workflow,
                       const AnalysisOptions& options,
                       DiagnosticBag* diagnostics) const {
  if (workflow.channels().empty()) {
    return;
  }
  // Validate the plan this deployment would actually install: the default
  // synthesized PlanCapacity output. Synthesis ends by analyzing the final
  // plan, so its report is the verdict.
  PlanningOptions planning;
  planning.ensure_liveness = false;
  CapacityPlan plan = PlanCapacity(workflow, options, planning);
  const LivenessReport report =
      SynthesizeLiveCapacities(workflow, options, &plan);
  ReportLiveness(report, options, diagnostics);
  if (report.blocking_deployment && !plan.liveness_bumps.empty()) {
    std::ostringstream oss;
    oss << "deadlock-freedom synthesis raised " << plan.liveness_bumps.size()
        << " channel capacit"
        << (plan.liveness_bumps.size() == 1 ? "y" : "ies")
        << " to restore liveness:";
    for (const CapacityBump& b : plan.liveness_bumps) {
      oss << "\n  '" << b.channel << "': " << b.from_capacity << " -> "
          << b.to_capacity << " (" << b.reason << ")";
    }
    diagnostics->Note("CWF6004", ActorLocation(options, ""), oss.str(),
                      nullptr);
  }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string LivenessReport::ToText() const {
  std::ostringstream oss;
  oss << "liveness of '" << workflow << "'";
  if (!director.empty()) {
    oss << " under " << director;
  }
  oss << ": " << LivenessVerdictName(verdict) << " (" << method << ")\n";
  if (!blocking_deployment) {
    oss << "  under blocking backpressure (what-if): "
        << LivenessVerdictName(blocking_verdict) << " (" << blocking_method
        << ")\n";
  }
  if (!witness.empty()) {
    oss << "  witness cycle: " << witness.CycleString() << "\n";
    for (const DeadlockEdge& edge : witness.cycle) {
      oss << "    " << edge.ToString() << "\n";
    }
  }
  for (const std::string& note : notes) {
    oss << "  note: " << note << "\n";
  }
  return oss.str();
}

std::string LivenessReport::ToJson() const {
  std::ostringstream oss;
  oss << "{\"workflow\":";
  AppendJsonString(oss, workflow);
  oss << ",\"director\":";
  AppendJsonString(oss, director);
  oss << ",\"blocking_deployment\":"
      << (blocking_deployment ? "true" : "false");
  oss << ",\"verdict\":";
  AppendJsonString(oss, LivenessVerdictName(verdict));
  oss << ",\"method\":";
  AppendJsonString(oss, method);
  oss << ",\"blocking_verdict\":";
  AppendJsonString(oss, LivenessVerdictName(blocking_verdict));
  oss << ",\"blocking_method\":";
  AppendJsonString(oss, blocking_method);
  oss << ",\"witness_cycle\":[";
  for (size_t i = 0; i < witness.cycle.size(); ++i) {
    if (i > 0) {
      oss << ",";
    }
    const DeadlockEdge& edge = witness.cycle[i];
    oss << "{\"waiter\":";
    AppendJsonString(oss, edge.waiter_name);
    oss << ",\"waits_on\":";
    AppendJsonString(oss, edge.waits_on_name);
    oss << ",\"kind\":" << (edge.put_blocked ? "\"put\"" : "\"get\"");
    oss << ",\"channel\":";
    AppendJsonString(oss, edge.channel);
    oss << ",\"capacity\":" << edge.capacity << "}";
  }
  oss << "],\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) {
      oss << ",";
    }
    AppendJsonString(oss, notes[i]);
  }
  oss << "]}";
  return oss.str();
}

}  // namespace cwf::analysis

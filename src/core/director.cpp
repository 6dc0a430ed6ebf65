#include "core/director.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/capacity_planner.h"
#include "analysis/liveness_pass.h"
#include "analysis/schema_pass.h"
#include "core/wait_graph.h"
#include "stream/stream_source.h"

namespace cwf {

void Director::set_capacity_plan(const analysis::CapacityPlan& plan) {
  capacity_plan_ = std::make_shared<const analysis::CapacityPlan>(plan);
}

Status Director::Initialize(Workflow* workflow, Clock* clock,
                            const CostModel* cost_model) {
  if (workflow == nullptr || clock == nullptr) {
    return Status::InvalidArgument("Initialize() needs a workflow and a clock");
  }
  initialized_ = false;
  workflow_ = workflow;
  clock_ = clock;
  cost_model_ = cost_model;
  total_firings_ = 0;
  deadline_receivers_.clear();
  ResolveActorTables();
  if (ctx_ == &own_ctx_) {
    own_ctx_.seq = 1;
    own_ctx_.external_id = 1;
    own_ctx_.clock = clock_;
    own_ctx_.director = this;
  }
  analysis::SchemaReport schemas;
  if (static_analysis_enabled_) {
    // Admission of this level: structural, MoC and schema errors
    // (analysis/analyzer.h). A composite's inner level is gated by its own
    // director when the composite initializes below.
    CWF_RETURN_NOT_OK(
        analysis::VerifyForDirector(*workflow_, kind(), &schemas));
  } else {
    CWF_RETURN_NOT_OK(workflow_->Validate());
  }
  installed_plan_liveness_.clear();
  if (capacity_plan_ != nullptr && static_analysis_enabled_ &&
      planned_overflow_policy() == OverflowPolicy::kBlock) {
    // This deployment enforces the plan's bounds with blocking puts:
    // refuse a plan the liveness pass can prove will artificially
    // deadlock, and remember the verdict so the runtime watchdog can
    // cross-validate (analysis/liveness_pass.h).
    analysis::AnalysisOptions liveness_options;
    liveness_options.target_director = kind();
    const analysis::LivenessReport report = analysis::AnalyzeLiveness(
        *workflow_, liveness_options, *capacity_plan_);
    if (report.verdict == analysis::LivenessVerdict::kProvablyDeadlocking) {
      return Status::InvalidArgument(
          "CWF6001: installed capacity plan provably deadlocks under " +
          std::string(kind()) + " blocking backpressure\n" +
          report.witness.ToString());
    }
    installed_plan_liveness_ = analysis::LivenessVerdictName(report.verdict);
  }
  CWF_RETURN_NOT_OK(BuildReceivers());
  // Initialize re-entry starts a fresh run: receiver high-water marks must
  // not leak across runs. Channel receivers are rebuilt above, but
  // subclasses and tests may install receivers outside BuildReceivers(), so
  // sweep everything attached to the workflow.
  for (const auto& actor : workflow_->actors()) {
    for (const auto& port : actor->input_ports()) {
      for (size_t c = 0; c < port->ChannelCount(); ++c) {
        if (Receiver* r = port->receiver(c)) {
          r->ResetHighWaterMark();
        }
      }
    }
  }
  // Analysis->runtime feedback edge: attach each channel's type from the
  // gate's schema resolution to its receiver so debug builds
  // (CWF_SCHEMA_CHECK) validate every deposit against the schema the gate
  // verified, turning deep-in-actor CHECK-fails into CWF7008 errors naming
  // the channel. The producer's resolved type wins; without one the
  // consumer's own requirement still attributes violations.
  for (const analysis::ChannelSchema& ch : schemas.channels) {
    const TokenType& type =
        ch.resolved.is_unknown() ? ch.required : ch.resolved;
    if (type.is_unknown()) {
      continue;
    }
    if (Receiver* r = ch.to_port->receiver(ch.to_channel)) {
      r->SetExpectedType(std::make_shared<const TokenType>(type),
                         ch.from + " -> " + ch.to);
    }
  }
  telemetry_.Bind(*workflow_, kind());
  for (const auto& actor : workflow_->actors()) {
    CWF_RETURN_NOT_OK(actor->Initialize(ctx_));
  }
  initialized_ = true;
  return Status::OK();
}

void Director::ResolveActorTables() {
  const auto& actors = workflow_->actors();
  timed_sources_.clear();
  costs_.clear();
  for (const auto& actor : actors) {
    timed_sources_.push_back(dynamic_cast<const TimedSource*>(actor.get()));
    if (cost_model_ != nullptr) {
      costs_.push_back(cost_model_->ParamsFor(actor->name()));
    }
  }
  halted_ = std::vector<std::atomic<bool>>(actors.size());
}

Status Director::Wrapup() {
  if (workflow_ == nullptr) {
    return Status::OK();
  }
  for (const auto& actor : workflow_->actors()) {
    CWF_RETURN_NOT_OK(actor->Wrapup());
  }
  return Status::OK();
}

Status Director::BuildReceivers() {
  // Reset any previous wiring (re-initialization support).
  for (const auto& actor : workflow_->actors()) {
    for (const auto& out : actor->output_ports()) {
      out->ClearRemoteReceivers();
    }
  }
  for (const ChannelSpec& ch : workflow_->channels()) {
    // Receiver-ownership invariant: a director only wires channels between
    // ports of the workflow it was bound to.
    CWF_DCHECK_MSG(
        workflow_->FindActor(ch.to->actor()->name()) == ch.to->actor(),
        "channel into " << ch.to->FullName()
                        << " targets an actor outside this workflow");
    CWF_DCHECK_MSG(
        workflow_->FindActor(ch.from->actor()->name()) == ch.from->actor(),
        "channel out of " << ch.from->FullName()
                          << " leaves an actor outside this workflow");
    Receiver* raw = InstallReceiver(ch.to, ch.to_channel);
    raw->set_probe(
        telemetry_.CreateReceiverProbe(ch.to->FullName(), ch.to_channel));
    // Analysis→runtime feedback edge: pre-size the queue to the planner's
    // bound (Floe-style buffer sizing, computed once by cwf_analyze --plan
    // or PlanCapacity and reused here).
    if (capacity_plan_ != nullptr) {
      const size_t bound =
          capacity_plan_->CapacityFor(ch.to->FullName(), ch.to_channel);
      if (bound > 0) {
        raw->SetCapacity(bound, planned_overflow_policy());
      }
    }
    ch.from->AddRemoteReceiver(raw);
  }
  return Status::OK();
}

Receiver* Director::InstallReceiver(InputPort* port, size_t channel) {
  Receiver* receiver = port->SetReceiver(channel, CreateReceiver(port));
  receiver->set_owner(this);
  if (port->spec().HasFormationDeadline()) {
    deadline_receivers_.push_back(receiver);
  }
  return receiver;
}

Status Director::FlushActorOutputs(Actor* actor, size_t* emitted) {
#ifdef CWF_OBS_ENABLED
  static const obs::ProfileSite* open_site =
      obs::Profiler::Global().Site("<director>", obs::ProfilePhase::kWaveOpen);
#endif
  // Stamped and broadcast in place; the buffer keeps its capacity for the
  // actor's next firing.
  std::vector<PendingOutput>& outputs = actor->pending_outputs();
  if (emitted != nullptr) {
    *emitted = outputs.size();
  }
  if (outputs.empty()) {
    return Status::OK();
  }
  // Wave-open phase: stamping + broadcast bookkeeping. Receiver deposits
  // nested under Broadcast profile as receiver_put and are subtracted from
  // this scope's self time.
  CWF_PROFILE_SCOPE(open_site);
  const FiringContext& fc = actor->firing_context();
  // Wave serial numbers cover only the outputs that join the firing's wave;
  // stamp-preserved re-emissions keep their original tags.
  uint32_t n_regular = 0;
  for (const PendingOutput& po : outputs) {
    if (!po.wave_override.has_value()) {
      ++n_regular;
    }
  }
  uint32_t serial = 0;
  for (PendingOutput& po : outputs) {
    // Receiver-ownership invariant: everything this flush broadcasts into
    // must be a receiver this director built (or a directorless boundary
    // collector) — a foreign owner means a stale wiring from a previous
    // initialization is still attached.
    for (Receiver* r : po.port->remote_receivers()) {
      CWF_DCHECK_MSG(r->owner() == nullptr || r->owner() == this,
                     "port " << po.port->FullName()
                             << " still feeds a receiver built by a "
                                "different director");
    }
    CWEvent event;
    event.token = std::move(po.token);
    event.seq = ctx_->NextSeq();
    if (po.wave_override.has_value()) {
      // Re-emission of a previously stamped event (SendPreserved).
      event.wave = *po.wave_override;
      event.timestamp = po.external_timestamp.value_or(clock_->Now());
      event.last_in_wave = po.last_in_wave_override;
    } else if (fc.valid) {
      // Internal event: joins the wave of the event being processed.
      ++serial;
      event.wave = fc.wave.Child(serial);
      event.timestamp = fc.timestamp;
      event.last_in_wave = (serial == n_regular);
    } else {
      // External event: starts a new wave. Its timestamp is the tuple's
      // arrival time (sources stamp it explicitly) or "now".
      event.wave = WaveTag::Root(ctx_->NextExternalId());
      event.timestamp = po.external_timestamp.value_or(clock_->Now());
      event.last_in_wave = true;
    }
    // Traced before the broadcast: under OS threads a consumer may fire on
    // the event as soon as it lands, and the trace replay must meet the
    // event's record before the firing that consumes it.
    telemetry_.RecordEmit(event, po.port->remote_receivers().size());
    CWF_RETURN_NOT_OK(po.port->Broadcast(event));
  }
  outputs.clear();
  return Status::OK();
}

Result<FiringOutcome> Director::FireOnce(Actor* actor) {
#ifdef CWF_OBS_ENABLED
  // Profile cells were resolved at Bind; the branch keeps the disabled cost
  // to one relaxed load (no map lookup).
  const obs::WorkflowTelemetry::ActorProfileSites sites =
      obs::ProfilingEnabled() ? telemetry_.ProfileSitesFor(actor)
                              : obs::WorkflowTelemetry::ActorProfileSites{};
#endif
  actor->BeginFiring();
  // Attribute CHECK-fail context and blocking puts (the PNCWF wait graph
  // needs the producing end of an edge) to this actor.
  ScopedCurrentActor current_actor(actor);
  const Timestamp fire_start = clock_->Now();
  FiringOutcome outcome;
  {
    CWF_PROFILE_SCOPE(sites.fire);
    CWF_RETURN_NOT_OK(actor->Fire());
    CWF_RETURN_NOT_OK(FlushActorOutputs(actor, &outcome.emitted));
  }
  const FiringContext& fc = actor->firing_context();
  outcome.consumed = fc.events_consumed;
  actor->IncrementFirings();
  total_firings_.fetch_add(1, std::memory_order_relaxed);
  outcome.cost =
      ChargeFiring(actor, outcome.consumed, outcome.emitted, fire_start);
  auto cont = [&] {
    CWF_PROFILE_SCOPE(sites.postfire);
    return actor->Postfire();
  }();
  if (!cont.ok()) {
    return cont.status();
  }
  obs::FiringRecord record;
  record.actor = actor;
  record.cost = outcome.cost;
  record.consumed = outcome.consumed;
  record.emitted = outcome.emitted;
  record.start = fire_start;
  record.end = clock_->Now();
  record.wave = fc.valid ? &fc.wave : nullptr;
  telemetry_.RecordFiring(record);
  outcome.halted = !cont.value();
  if (outcome.halted) {
    MarkHalted(actor);
  }
  return outcome;
}

Duration Director::ChargeFiring(const Actor* actor, size_t consumed,
                                size_t emitted, Timestamp fire_start) {
  if (!clock_->is_virtual()) {
    return clock_->Now() - fire_start;
  }
  return costs_.empty() ? 0 : costs_[SlotOf(actor)].Cost(consumed, emitted);
}

void Director::FireReceiverTimeouts(Timestamp now) {
  for (Receiver* r : deadline_receivers_) {
    if (r->NextDeadline() <= now) {
      r->OnTimeout(now);
    }
  }
}

Timestamp Director::NextWakeup() const {
  Timestamp next = Timestamp::Max();
  if (workflow_ == nullptr) {
    return next;
  }
  const auto& actors = workflow_->actors();
  for (size_t slot = 0; slot < actors.size(); ++slot) {
    if (const TimedSource* src = timed_sources_[slot]) {
      next = std::min(next, src->NextPendingArrival());
    }
    next = std::min(next, actors[slot]->NextDeadline());
  }
  for (const Receiver* r : deadline_receivers_) {
    next = std::min(next, r->NextDeadline());
  }
  return next;
}

bool Director::HasPendingWork() const {
  if (workflow_ == nullptr) {
    return false;
  }
  for (const ChannelSpec& ch : workflow_->channels()) {
    const Receiver* r = ch.to->receiver(ch.to_channel);
    if (r != nullptr && r->ReadyWindowCount() > 0) {
      return true;
    }
  }
  return NextWakeup() <= clock_->Now();
}

}  // namespace cwf

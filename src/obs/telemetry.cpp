#include "obs/telemetry.h"

#include <map>

#include "core/actor.h"
#include "core/workflow.h"

namespace cwf::obs {

WaveTracer& GlobalTracer() {
  static WaveTracer* tracer = new WaveTracer();
  return *tracer;
}

void ResetGlobalTracer() { GlobalTracer().Reset(); }

namespace {

void RegisterHelp(MetricsRegistry& reg) {
  reg.SetHelp("cwf_actor_firings_total", "Completed firings per actor");
  reg.SetHelp("cwf_actor_cost_us",
              "Engine-time firing cost in microseconds (modeled on a virtual "
              "clock, measured on a real clock)");
  reg.SetHelp("cwf_actor_events_consumed_total",
              "Events consumed by firings, per actor");
  reg.SetHelp("cwf_actor_events_emitted_total",
              "Events emitted by firings, per actor");
  reg.SetHelp("cwf_actor_events_arrived_total",
              "Events that arrived at the actor's scheduler queues");
  reg.SetHelp("cwf_sched_decisions_total",
              "Times the scheduler picked this actor");
  reg.SetHelp("cwf_backpressure_deferrals_total",
              "Producer firings deferred against a full plan-bounded queue "
              "(simulated-thread PNCWF)");
  reg.SetHelp("cwf_sched_ready_events",
              "Events queued engine-wide at each scheduler decision");
  reg.SetHelp("cwf_wave_latency_us",
              "Wave birth-to-closure latency in engine microseconds "
              "(replayed from the trace when it is read)");
  reg.SetHelp("cwf_receiver_puts_total", "Events deposited, per channel");
  reg.SetHelp("cwf_receiver_gets_total", "Windows retrieved, per channel");
  reg.SetHelp("cwf_receiver_depth",
              "Queued units (pending events + ready windows) per channel; "
              "the gauge maximum is the high-water mark");
  reg.SetHelp("cwf_receiver_blocked_us_total",
              "Host microseconds producer threads spent blocked in Put() "
              "against this channel's capacity bound");
}

}  // namespace

void WorkflowTelemetry::Bind(const Workflow& workflow,
                             const char* director_kind) {
#ifdef CWF_OBS_ENABLED
  actors_.clear();
  MetricsRegistry& reg = MetricsRegistry::Global();
  RegisterHelp(reg);
  ready_queue_events_ = reg.GetHistogram("cwf_sched_ready_events");
  GlobalTracer().set_latency_sink(reg.GetHistogram("cwf_wave_latency_us"));
  for (const auto& actor : workflow.actors()) {
    const std::string& name = actor->name();
    ActorInstruments ai;
    ai.actor = actor.get();
    ai.firings = reg.GetCounter("cwf_actor_firings_total", "actor", name);
    ai.cost_us = reg.GetHistogram("cwf_actor_cost_us", "actor", name);
    ai.consumed =
        reg.GetCounter("cwf_actor_events_consumed_total", "actor", name);
    ai.emitted =
        reg.GetCounter("cwf_actor_events_emitted_total", "actor", name);
    ai.arrived =
        reg.GetCounter("cwf_actor_events_arrived_total", "actor", name);
    ai.decisions = reg.GetCounter("cwf_sched_decisions_total", "actor", name);
    ai.deferrals =
        reg.GetCounter("cwf_backpressure_deferrals_total", "actor", name);
    ai.tid = GlobalTracer().RegisterTrack(std::string(director_kind) + ":" +
                                          name);
    Profiler& profiler = Profiler::Global();
    ai.profile.prefire = profiler.Site(name, ProfilePhase::kPrefire);
    ai.profile.fire = profiler.Site(name, ProfilePhase::kFire);
    ai.profile.postfire = profiler.Site(name, ProfilePhase::kPostfire);
    actors_.push_back(ai);
  }
#else
  (void)workflow;
  (void)director_kind;
#endif
}

const ReceiverProbe* WorkflowTelemetry::CreateReceiverProbe(
    const std::string& port_name, size_t channel) {
#ifdef CWF_OBS_ENABLED
  std::string label = port_name;
  if (channel > 0) {
    label += "#" + std::to_string(channel);
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Probes are owned by the registry-adjacent static store so receiver
  // lifetime (director-owned) never outlives them.
  static OrderedMutex* mutex =
      new OrderedMutex("obs::CreateReceiverProbe::mutex");
  static std::map<std::string, ReceiverProbe>* probes =
      new std::map<std::string, ReceiverProbe>();
  ScopedLock lock(*mutex);
  auto [it, inserted] = probes->try_emplace(label);
  if (inserted) {
    it->second.puts = reg.GetCounter("cwf_receiver_puts_total", "port", label);
    it->second.gets = reg.GetCounter("cwf_receiver_gets_total", "port", label);
    it->second.depth = reg.GetGauge("cwf_receiver_depth", "port", label);
    it->second.blocked_us =
        reg.GetCounter("cwf_receiver_blocked_us_total", "port", label);
    Profiler& profiler = Profiler::Global();
    it->second.put_site = profiler.Site(label, ProfilePhase::kReceiverPut);
    it->second.get_site = profiler.Site(label, ProfilePhase::kReceiverGet);
    it->second.blocked_site = profiler.Site(label, ProfilePhase::kBlocked);
  }
  return &it->second;
#else
  (void)port_name;
  (void)channel;
  return nullptr;
#endif
}

const WorkflowTelemetry::ActorInstruments* WorkflowTelemetry::Find(
    const Actor* actor) const {
  if (actors_.empty()) {
    return nullptr;
  }
  const size_t slot = actor->slot();
  CWF_CHECK_MSG(slot < actors_.size() && actors_[slot].actor == actor,
                "telemetry for actor '" << actor->name()
                                        << "' outside the bound workflow");
  return &actors_[slot];
}

uint32_t WorkflowTelemetry::TrackFor(const Actor* actor) const {
  const ActorInstruments* ai = Find(actor);
  return ai == nullptr ? 0 : ai->tid;
}

WorkflowTelemetry::ActorProfileSites WorkflowTelemetry::ProfileSitesFor(
    const Actor* actor) const {
  const ActorInstruments* ai = Find(actor);
  return ai == nullptr ? ActorProfileSites{} : ai->profile;
}

void WorkflowTelemetry::RecordFiring(const FiringRecord& record) {
#ifdef CWF_OBS_ENABLED
  const ActorInstruments* ai = Find(record.actor);
  if (ai == nullptr) {
    return;
  }
  if (MetricsEnabled()) {
    ai->firings->Add(1);
    ai->cost_us->Record(record.cost);
    if (record.consumed > 0) {
      ai->consumed->Add(record.consumed);
    }
    if (record.emitted > 0) {
      ai->emitted->Add(record.emitted);
    }
  }
  if (TracingEnabled()) {
    static const ProfileSite* close_site =
        Profiler::Global().Site("<tracer>", ProfilePhase::kWaveClose);
    CWF_PROFILE_SCOPE(close_site);
    GlobalTracer().OnFiring(ai->tid, record.wave, record.start, record.end,
                            record.consumed, record.emitted);
  }
#else
  (void)record;
#endif
}

void WorkflowTelemetry::RecordArrival(const Actor* actor, size_t n) {
#ifdef CWF_OBS_ENABLED
  const ActorInstruments* ai = Find(actor);
  if (ai != nullptr && MetricsEnabled()) {
    ai->arrived->Add(n);
  }
#else
  (void)actor;
  (void)n;
#endif
}

void WorkflowTelemetry::RecordDecision(const Actor* chosen,
                                       size_t queued_events, Timestamp now) {
#ifdef CWF_OBS_ENABLED
  const ActorInstruments* ai = Find(chosen);
  if (ai == nullptr) {
    return;
  }
  if (MetricsEnabled()) {
    ai->decisions->Add(1);
    ready_queue_events_->Record(static_cast<int64_t>(queued_events));
  }
  if (TracingEnabled()) {
    GlobalTracer().Instant(ai->tid, now);
  }
#else
  (void)chosen;
  (void)queued_events;
  (void)now;
#endif
}

void WorkflowTelemetry::RecordBackpressureDeferral(const Actor* actor) {
#ifdef CWF_OBS_ENABLED
  const ActorInstruments* ai = Find(actor);
  if (ai != nullptr && MetricsEnabled()) {
    ai->deferrals->Add(1);
  }
#else
  (void)actor;
#endif
}

}  // namespace cwf::obs

#include "directors/pncwf_director.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

/// Receiver for OS-thread mode: every operation locks the *consuming*
/// actor's synchronization domain and put() wakes its thread — the
/// "blocking read" of the PNCWF execution model. With a planner-assigned
/// capacity the put side blocks too: a producer thread at a full queue
/// waits until the consumer drains (backpressure), turning the paper's
/// unbounded-deque overload regime into a bounded pipeline.
class BlockingWindowedReceiver : public WindowedReceiver {
 public:
  BlockingWindowedReceiver(InputPort* port, WindowSpec spec,
                           OrderedRecursiveMutex* mutex,
                           std::condition_variable_any* cv,
                           const std::atomic<bool>* stop,
                           ChannelWaitGraph* wait_graph)
      : WindowedReceiver(port, std::move(spec)),
        mutex_(mutex),
        cv_(cv),
        stop_(stop),
        wait_graph_(wait_graph) {}

  // ts-allowlist: condition-variable wait — blocking-put backpressure parks
  // the producer on the consumer domain's cv via std::unique_lock, which
  // the thread-safety analysis cannot model.
  Status Put(const CWEvent& event) override CWF_NO_THREAD_SAFETY_ANALYSIS {
    Status st;
    {
      std::unique_lock<OrderedRecursiveMutex> lock(*mutex_);
      // Blocking-put backpressure. After stop the deposit proceeds
      // regardless (an event the producer already committed to must not be
      // lost), so the capacity invariant is a steady-state property.
      if (overflow_policy() == OverflowPolicy::kBlock && AtCapacity() &&
          !stop_->load()) {
        // Register the put edge so the watchdog sees this producer parked
        // against a full channel (no-op for threads outside a firing).
        const Actor* waiter = ScopedCurrentActor::Current();
        wait_graph_->OnPutBlocked(waiter, this);
        // Charge the wait to the channel's blocked-time counter — the
        // backpressure share of end-to-end latency.
        const int64_t blocked_from = obs::HostMonotonicMicros();
        while (overflow_policy() == OverflowPolicy::kBlock && AtCapacity() &&
               !stop_->load()) {
          // Parks until the consumer's Get(), Flush() or OnTimeout() frees
          // space, or the director's stop (WakeAll() takes this mutex
          // before notifying, so the stop check above cannot miss it).
          // cwf-tidy-allow(cwf-unbounded-wait): woken by Get/Flush/OnTimeout or stop; the while re-checks
          cv_->wait(lock);
        }
        wait_graph_->OnPutUnblocked(waiter);
        const int64_t blocked_us = obs::HostMonotonicMicros() - blocked_from;
        NoteBlockedMicros(blocked_us);
#ifdef CWF_OBS_ENABLED
        // The wait was timed above; credit it to the blocked phase without
        // a scope (RecordExternal never nests).
        if (probe() != nullptr) {
          obs::Profiler::RecordExternal(probe()->blocked_site,
                                        blocked_us * 1000);
        }
#endif
      }
      st = WindowedReceiver::Put(event);
    }
    cv_->notify_all();
    return st;
  }

  bool HasWindow() const override {
    ScopedLock lock(*mutex_);
    return WindowedReceiver::HasWindow();
  }

  std::optional<Window> Get() override {
    std::optional<Window> w;
    {
      ScopedLock lock(*mutex_);
      w = WindowedReceiver::Get();
    }
    // A drained slot may unblock a producer waiting in Put().
    cv_->notify_all();
    return w;
  }

  size_t ReadyWindowCount() const override {
    ScopedLock lock(*mutex_);
    return WindowedReceiver::ReadyWindowCount();
  }

  size_t PendingEventCount() const override {
    ScopedLock lock(*mutex_);
    return WindowedReceiver::PendingEventCount();
  }

  Timestamp NextDeadline() const override {
    ScopedLock lock(*mutex_);
    return WindowedReceiver::NextDeadline();
  }

  void OnTimeout(Timestamp now) override {
    {
      ScopedLock lock(*mutex_);
      WindowedReceiver::OnTimeout(now);
    }
    cv_->notify_all();
  }

  void Flush() override {
    {
      ScopedLock lock(*mutex_);
      WindowedReceiver::Flush();
    }
    cv_->notify_all();
  }

 private:
  OrderedRecursiveMutex* mutex_;
  std::condition_variable_any* cv_;
  const std::atomic<bool>* stop_;
  ChannelWaitGraph* wait_graph_;
};

}  // namespace

PNCWFDirector::PNCWFDirector(PNCWFOptions options) : options_(options) {}

PNCWFDirector::~PNCWFDirector() {
  stop_ = true;
  WakeAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

Status PNCWFDirector::Initialize(Workflow* workflow, Clock* clock,
                                 const CostModel* cost_model) {
  if (clock != nullptr) {
    if (options_.mode == PNCWFMode::kSimulatedThreads) {
      if (!clock->is_virtual()) {
        return Status::InvalidArgument(
            "simulated-thread PNCWF requires a virtual clock");
      }
      if (cost_model == nullptr) {
        return Status::InvalidArgument(
            "simulated-thread PNCWF requires a cost model");
      }
    } else if (clock->is_virtual()) {
      return Status::InvalidArgument(
          "OS-thread PNCWF requires a real clock");
    }
  }
  // Build the per-actor synchronization domains before receivers are
  // created (CreateReceiver consults them in OS-thread mode).
  syncs_.clear();
  if (workflow != nullptr) {
    for (const auto& actor : workflow->actors()) {
      syncs_[actor.get()] = std::make_unique<ActorSync>();
    }
  }
  stop_ = false;
  busy_ = 0;
  loop_timed_wakeups_ = 0;
  context_switches_ = 0;
  CWF_RETURN_NOT_OK(Director::Initialize(workflow, clock, cost_model));
  // Teach the wait graph this workflow's channel topology so blocking
  // receivers (which only know their consumer) resolve to full wait edges.
  wait_graph_.Reset();
  for (const ChannelSpec& ch : workflow_->channels()) {
    const Receiver* r = ch.to->receiver(ch.to_channel);
    if (r == nullptr) {
      continue;
    }
    std::string name = ch.from->FullName() + " -> " + ch.to->FullName() +
                       "[" + std::to_string(ch.to_channel) + "]";
    wait_graph_.RegisterChannel(r, ch.from->actor(), ch.to->actor(),
                                std::move(name));
  }
  return Status::OK();
}

std::unique_ptr<Receiver> PNCWFDirector::CreateReceiver(InputPort* port) {
  if (options_.mode == PNCWFMode::kSimulatedThreads) {
    return std::make_unique<WindowedReceiver>(port, port->spec());
  }
  ActorSync* sync = syncs_.at(port->actor()).get();
  return std::make_unique<BlockingWindowedReceiver>(
      port, port->spec(), &sync->mutex, &sync->cv, &stop_, &wait_graph_);
}

uint64_t PNCWFDirector::timed_wakeups(const Actor* actor) const {
  if (actor == nullptr) {
    return loop_timed_wakeups_.load();
  }
  auto it = syncs_.find(actor);
  return it == syncs_.end() ? 0 : it->second->timed_wakeups.load();
}

bool PNCWFDirector::DownstreamAtCapacity(const Actor* actor) const {
  for (const auto& port : actor->output_ports()) {
    for (const Receiver* r : port->remote_receivers()) {
      if (r->overflow_policy() == OverflowPolicy::kBlock && r->AtCapacity()) {
        return true;
      }
    }
  }
  return false;
}

Duration PNCWFDirector::ChargeFiring(const Actor* actor, size_t consumed,
                                     size_t emitted, Timestamp fire_start) {
  Duration cost = Director::ChargeFiring(actor, consumed, emitted, fire_start);
  if (clock_->is_virtual()) {
    cost += cost_model_->sync_per_event_overhead *
            static_cast<Duration>(consumed + emitted);
    clock_->AdvanceBy(cost);
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Simulated-thread mode: deterministic round-robin preemption on the
// virtual clock.
// ---------------------------------------------------------------------------

Status PNCWFDirector::RunSimulated(Timestamp until) {
#ifdef CWF_OBS_ENABLED
  static const obs::ProfileSite* dispatch_site = obs::Profiler::Global().Site(
      "<director>", obs::ProfilePhase::kSchedulerDispatch);
#endif
  CWF_PROFILE_WALL_SCOPE();
  const auto& actors = workflow_->actors();
  const size_t n = actors.size();
  size_t cursor = 0;
  for (;;) {
    if (clock_->Now() > until) {
      break;
    }

    // The simulated OS picks the next runnable "thread" round-robin. A
    // "thread" whose downstream queue is at its planned capacity is treated
    // as blocked in put() — the single-threaded simulation of the OS-mode
    // blocking-put backpressure.
    Actor* chosen = nullptr;
    {
      CWF_PROFILE_SCOPE(dispatch_site);
      FireReceiverTimeouts(clock_->Now());
      for (size_t k = 0; k < n; ++k) {
        Actor* a = actors[(cursor + k) % n].get();
        if (IsHalted(a)) {
          continue;
        }
        if (DownstreamAtCapacity(a)) {
          telemetry_.RecordBackpressureDeferral(a);
          continue;
        }
        auto pf = a->Prefire();
        if (!pf.ok()) {
          return pf.status();
        }
        if (pf.value()) {
          chosen = a;
          cursor = (cursor + k + 1) % n;
          break;
        }
      }
    }
    if (chosen == nullptr) {
      const Timestamp next = NextWakeup();
      if (next != Timestamp::Max() && next > until) {
        break;  // remaining work lies beyond the horizon
      }
      if (next != Timestamp::Max() && next > clock_->Now()) {
        clock_->AdvanceTo(next);
        continue;
      }
      // Nothing can fire and no future instant changes that: either the
      // workflow drained, or the blocked "threads" form an artificial
      // deadlock. Rebuild their wait edges from scheduler state and let
      // the shared evaluator decide (the simulated twin of the OS-mode
      // watchdog, deterministic by construction).
      std::vector<WaitNode> blocked;
      for (const auto& entry : actors) {
        Actor* a = entry.get();
        if (IsHalted(a)) {
          continue;
        }
        auto pf = a->Prefire();
        if (!pf.ok()) {
          return pf.status();
        }
        WaitNode node;
        node.actor = a;
        node.actor_name = a->name();
        if (pf.value()) {
          if (!DownstreamAtCapacity(a)) {
            continue;  // defensive: a fireable actor should have been chosen
          }
          // Parked in put() against the first full planned queue.
          node.put_blocked = true;
          for (const auto& port : a->output_ports()) {
            for (Receiver* r : port->remote_receivers()) {
              if (r->overflow_policy() == OverflowPolicy::kBlock &&
                  r->AtCapacity()) {
                WaitTarget target;
                target.actor = r->port()->actor();
                target.receiver = r;
                target.channel = wait_graph_.ChannelName(r);
                target.capacity = r->capacity();
                node.put_targets.push_back(std::move(target));
                break;
              }
            }
            if (!node.put_targets.empty()) {
              break;
            }
          }
          blocked.push_back(std::move(node));
          continue;
        }
        node.put_blocked = false;
        node.get_ports = BuildGetWaits(a);
        if (!node.get_ports.empty()) {
          blocked.push_back(std::move(node));
        }
      }
      const DeadlockReport report = EvaluateWaitGraph(blocked);
      if (!report.empty()) {
        return ConfirmDeadlock(report);
      }
      break;
    }

    // Context switch to the chosen thread, then let it run until it blocks
    // (no input) or its OS time slice expires.
#ifdef CWF_OBS_ENABLED
    const obs::WorkflowTelemetry::ActorProfileSites chosen_sites =
        obs::ProfilingEnabled() ? telemetry_.ProfileSitesFor(chosen)
                                : obs::WorkflowTelemetry::ActorProfileSites{};
#endif
    clock_->AdvanceBy(cost_model_->context_switch_overhead);
    ++context_switches_;
    Duration slice = cost_model_->os_time_slice;
    while (slice > 0 && clock_->Now() <= until) {
      if (DownstreamAtCapacity(chosen)) {
        telemetry_.RecordBackpressureDeferral(chosen);
        break;  // blocks in put() against a full planned queue
      }
      auto pf = [&] {
        CWF_PROFILE_SCOPE(chosen_sites.prefire);
        return chosen->Prefire();
      }();
      if (!pf.ok()) {
        return pf.status();
      }
      if (!pf.value()) {
        break;  // blocks on empty input
      }
      CWF_ASSIGN_OR_RETURN(const FiringOutcome outcome, FireOnce(chosen));
      slice -= outcome.cost;
      if (outcome.halted) {
        break;
      }
      FireReceiverTimeouts(clock_->Now());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OS-thread mode: one thread per actor, blocking windowed receivers.
// ---------------------------------------------------------------------------

namespace {

/// Cap on a starved actor's timed wait: Clock has no engine-to-wall
/// conversion, so a deadline on a clock running faster than the wall is
/// approached in steps of at most this much.
constexpr Duration kMaxDeadlineWait = Millis(10);
constexpr Duration kMinDeadlineWait = Micros(100);

constexpr Duration kWatchdogMicros =
    std::chrono::duration_cast<std::chrono::microseconds>(
        PNCWFDirector::kWatchdogPeriod)
        .count();

}  // namespace

Result<FiringOutcome> PNCWFDirector::FireTracked(Actor* actor,
                                                 ActorSync* sync) {
  activity_.fetch_add(1);
  busy_.fetch_add(1);
  auto outcome = FireOnce(actor);
  // Published before busy_ drops, so a Run() loop that reads busy_ == 0
  // also sees the deadline this firing left behind.
  sync->own_deadline.store(actor->NextDeadline());
  busy_.fetch_sub(1);
  return outcome;
}

void PNCWFDirector::NotifyParked() {
  if (sources_running_.load() != 0) {
    return;  // cannot drain yet; the watchdog period covers the rest
  }
  {
    ScopedLock lock(loop_mutex_);
    ++loop_seq_;
  }
  loop_cv_.notify_one();
}

void PNCWFDirector::WakeAll() {
  for (auto& [actor, sync] : syncs_) {
    // A thread that read stop_ == false under this mutex is either still
    // holding it or already waiting; taking it orders the notify after
    // that thread's wait.
    { ScopedLock lock(sync->mutex); }
    sync->cv.notify_all();
  }
}

// ts-allowlist: condition-variable wait — the blocked-on-empty-input park
// releases/reacquires the actor's sync mutex through cv.wait() on a
// std::unique_lock, which the thread-safety analysis cannot model.
void PNCWFDirector::ActorThreadBody(Actor* actor)
    CWF_NO_THREAD_SAFETY_ANALYSIS {
  ActorSync* sync = syncs_.at(actor).get();
#ifdef CWF_OBS_ENABLED
  // One lookup per thread lifetime; scopes stay inert until profiling is
  // enabled at runtime.
  const obs::WorkflowTelemetry::ActorProfileSites sites =
      telemetry_.ProfileSitesFor(actor);
#endif
  for (;;) {
    {
      std::unique_lock<OrderedRecursiveMutex> lock(sync->mutex);
      for (;;) {
        if (stop_.load()) {
          // Drain what is ready, then exit.
          auto pf = actor->Prefire();
          if (!pf.ok() || !pf.value()) {
            wait_graph_.OnGetUnblocked(actor);
            return;
          }
          break;
        }
        auto pf = [&] {
          CWF_PROFILE_SCOPE(sites.prefire);
          return actor->Prefire();
        }();
        if (!pf.ok()) {
          wait_graph_.OnGetUnblocked(actor);
          return;
        }
        if (pf.value()) {
          break;
        }
        // Blocked on empty inputs: honour pending window-formation
        // timeouts and find the earliest deadline, the actor's own
        // (e.g. a DelayActor's next release) included.
        Timestamp deadline = actor->NextDeadline();
        const Timestamp now = clock_->Now();
        for (const auto& port : actor->input_ports()) {
          for (size_t c = 0; c < port->ChannelCount(); ++c) {
            Receiver* r = port->receiver(c);
            if (r == nullptr) {
              continue;
            }
            if (r->NextDeadline() <= now) {
              r->OnTimeout(now);
            }
            deadline = std::min(deadline, r->NextDeadline());
          }
        }
        auto again = [&] {
          CWF_PROFILE_SCOPE(sites.prefire);
          return actor->Prefire();
        }();
        if (!again.ok()) {
          wait_graph_.OnGetUnblocked(actor);
          return;
        }
        if (again.value()) {
          break;
        }
        // Input-starved: publish the get edges (one alternative list per
        // windowless port) for the watchdog. Re-registration each lap is
        // an upsert — it refreshes the edges without bumping the unblock
        // epoch, so a stable candidate stays stable.
        wait_graph_.OnGetBlocked(actor, BuildGetWaits(actor));
        NotifyParked();
        if (deadline == Timestamp::Max()) {
          // cwf-tidy-allow(cwf-unbounded-wait): woken by a deposit, OnTimeout or Flush on this actor's receivers, or stop (WakeAll); the for re-runs prefire
          sync->cv.wait(lock);
        } else {
          const Duration wait = std::clamp<Duration>(
              deadline - clock_->Now(), kMinDeadlineWait, kMaxDeadlineWait);
          if (sync->cv.wait_for(lock, std::chrono::microseconds(wait)) ==
              std::cv_status::timeout) {
            sync->timed_wakeups.fetch_add(1);
          }
        }
      }
      wait_graph_.OnGetUnblocked(actor);
    }
    auto outcome = FireTracked(actor, sync);
    if (!outcome.ok()) {
      CWF_CLOG(kError, "pncwf") << "actor '" << actor->name()
                      << "' failed: " << outcome.status().ToString();
      return;
    }
    if (outcome->halted) {
      return;
    }
  }
}

void PNCWFDirector::SourceThreadBody(Actor* actor) {
  ActorSync* sync = syncs_.at(actor).get();
  const TimedSource* src = TimedSourceOf(actor);
  for (;;) {
    if (stop_.load()) {
      return;
    }
    if (src != nullptr) {
      const Timestamp next = src->NextPendingArrival();
      const Timestamp now = clock_->Now();
      if (next == Timestamp::Max()) {
        if (src->Exhausted()) {
          return;
        }
        // Empty feed: park until a push or close. The watchdog period
        // bounds the park so stop reaches this thread promptly.
        if (!src->WaitForData(kWatchdogPeriod)) {
          sync->timed_wakeups.fetch_add(1);
        }
        continue;
      }
      if (next > now) {
        // Queued but not yet arrived: sleep until the arrival, in steps of
        // at most the watchdog period.
        std::this_thread::sleep_for(
            std::chrono::microseconds(std::min(next - now, kWatchdogMicros)));
        sync->timed_wakeups.fetch_add(1);
        continue;
      }
    }
    auto outcome = FireTracked(actor, sync);
    if (!outcome.ok()) {
      CWF_CLOG(kError, "pncwf") << "source '" << actor->name()
                      << "' failed: " << outcome.status().ToString();
      return;
    }
    if (outcome->halted) {
      return;
    }
  }
}

std::vector<std::vector<WaitTarget>> PNCWFDirector::BuildGetWaits(
    const Actor* actor) const {
  std::vector<std::vector<WaitTarget>> ports;
  for (const auto& port : actor->input_ports()) {
    if (port->ChannelCount() == 0 || port->HasWindow()) {
      continue;
    }
    bool timer_pending = false;
    std::vector<WaitTarget> alternatives;
    for (size_t c = 0; c < port->ChannelCount(); ++c) {
      const Receiver* r = port->receiver(c);
      if (r == nullptr) {
        continue;
      }
      if (r->NextDeadline() != Timestamp::Max()) {
        // A registered window-formation timer will close a window here
        // without any producer progress: the port is not deadlock-prone.
        timer_pending = true;
        break;
      }
      WaitTarget target;
      target.actor = wait_graph_.ProducerOf(r);
      target.receiver = r;
      target.channel = wait_graph_.ChannelName(r);
      target.capacity = r->capacity();
      if (target.actor != nullptr) {
        alternatives.push_back(std::move(target));
      }
    }
    if (timer_pending || alternatives.empty()) {
      continue;  // satisfied without modeled producer progress: treat live
    }
    ports.push_back(std::move(alternatives));
  }
  return ports;
}

bool PNCWFDirector::StillBlocked(const WaitNode& node) const {
  if (node.put_blocked) {
    if (node.put_targets.empty()) {
      return false;
    }
    for (const WaitTarget& target : node.put_targets) {
      if (target.receiver == nullptr ||
          target.receiver->overflow_policy() != OverflowPolicy::kBlock ||
          !target.receiver->AtCapacity()) {
        return false;
      }
    }
    return true;
  }
  if (node.get_ports.empty()) {
    return false;
  }
  for (const auto& port : node.get_ports) {
    for (const WaitTarget& target : port) {
      if (target.receiver == nullptr || target.receiver->HasWindow() ||
          target.receiver->NextDeadline() != Timestamp::Max()) {
        return false;
      }
    }
  }
  return true;
}

Status PNCWFDirector::ConfirmDeadlock(const DeadlockReport& report) {
  const std::string rendered = report.ToString();
  CWF_CLOG(kError, "pncwf") << "CWF6005: " << rendered;
  wait_graph_.InvokeReportHandler(rendered);
  // Cross-validation with the static liveness pass: Initialize() stamped
  // the installed plan's verdict; a confirmed runtime deadlock under a
  // provably-live plan means the engine violated the model the proof was
  // built on — an invariant failure, not a capacity-planning error.
  CWF_ASSERT_MSG(installed_plan_liveness_ != "provably-live",
                 "runtime artificial deadlock on a statically provably-live "
                 "capacity plan: "
                     << rendered);
  return Status::FailedPrecondition("CWF6005: " + rendered);
}

bool PNCWFDirector::AllQuiescent() const {
  if (busy_.load() != 0 || sources_running_.load() != 0) {
    return false;
  }
  for (const auto& actor : workflow_->actors()) {
    if (const TimedSource* src = TimedSourceOf(actor.get())) {
      if (!src->Exhausted()) {
        return false;
      }
    }
    // Held work with a deadline (a DelayActor's in-flight events, a
    // composite's inner timer) is future work too.
    if (syncs_.at(actor.get())->own_deadline.load() != Timestamp::Max()) {
      return false;
    }
    for (const auto& port : actor->input_ports()) {
      if (port->ReadyWindowCount() > 0) {
        return false;
      }
      // A pending window-formation deadline is future work: the blocked
      // reader will still close and consume that window.
      for (size_t c = 0; c < port->ChannelCount(); ++c) {
        const Receiver* r = port->receiver(c);
        if (r != nullptr && r->NextDeadline() != Timestamp::Max()) {
          return false;
        }
      }
    }
  }
  return true;
}

// ts-allowlist: condition-variable wait — the loop parks on loop_cv_
// through a std::unique_lock, which the thread-safety analysis cannot model.
Status PNCWFDirector::RunThreaded(Timestamp until)
    CWF_NO_THREAD_SAFETY_ANALYSIS {
  using SteadyClock = std::chrono::steady_clock;
  CWF_PROFILE_WALL_SCOPE();
  threads_.clear();
  stop_ = false;
  sources_running_ = 0;
  for (const auto& actor : workflow_->actors()) {
    syncs_.at(actor.get())->own_deadline.store(actor->NextDeadline());
    if (actor->IsSource()) {
      sources_running_.fetch_add(1);
    }
  }
  uint64_t seen = 0;
  {
    ScopedLock lock(loop_mutex_);
    seen = loop_seq_;
  }
  for (const auto& actor : workflow_->actors()) {
    Actor* a = actor.get();
    // An exiting thread counts as parked: it may be the last one busy.
    if (a->IsSource()) {
      threads_.emplace_back([this, a] {
        SourceThreadBody(a);
        sources_running_.fetch_sub(1);
        NotifyParked();
      });
    } else {
      threads_.emplace_back([this, a] {
        ActorThreadBody(a);
        NotifyParked();
      });
    }
  }
  SteadyClock::time_point next_watchdog = SteadyClock::now() + kWatchdogPeriod;
  // Artificial-deadlock watchdog state: a candidate dead set must stay
  // identical (same actors, same unblock epochs) across this many watchdog
  // checks before it is revalidated against live receiver state and
  // reported.
  constexpr int kStableChecks = 3;
  std::vector<std::pair<const Actor*, uint64_t>> candidate;
  int stable_checks = 0;
  // Wait-graph version of the last live verdict; an idle deployment's
  // graph does not change, so its check stops at the version read.
  uint64_t live_version = 0;
  bool live_verdict = false;
  Status deadlock_status = Status::OK();
  for (;;) {
    {
      // Park until a thread parks or exits (NotifyParked), the next
      // watchdog check, or the horizon. Engine time may run faster than
      // the wall, so the horizon wait is capped by the watchdog period.
      SteadyClock::time_point wake_at = next_watchdog;
      if (until != Timestamp::Max()) {
        const Duration left =
            std::clamp<Duration>(until - clock_->Now(), 0, kWatchdogMicros);
        wake_at = std::min(wake_at,
                           SteadyClock::now() + std::chrono::microseconds(left));
      }
      std::unique_lock<OrderedMutex> lock(loop_mutex_);
      while (loop_seq_ == seen) {
        if (loop_cv_.wait_until(lock, wake_at) == std::cv_status::timeout) {
          loop_timed_wakeups_.fetch_add(1);
          break;
        }
      }
      seen = loop_seq_;
    }
    if (until != Timestamp::Max() && clock_->Now() >= until) {
      break;
    }
    // Drained: quiescent on two checks with no firing started in between
    // (a firing that completes between one receiver read and the next
    // could otherwise hide its output from a single scan).
    const uint64_t epoch = activity_.load();
    if (AllQuiescent() && AllQuiescent() && activity_.load() == epoch) {
      break;
    }
    if (SteadyClock::now() < next_watchdog) {
      continue;
    }
    next_watchdog = SteadyClock::now() + kWatchdogPeriod;

    // Watchdog: evaluate the wait graph over a lock-free copy. A cycle of
    // blocked actors never wakes itself, so an actual deadlock is a stable
    // candidate; transient backpressure churns epochs and resets it.
    const uint64_t version = wait_graph_.Version();
    if (live_verdict && version == live_version) {
      continue;
    }
    std::vector<WaitNode> snapshot = wait_graph_.Snapshot();
    const DeadlockReport report = EvaluateWaitGraph(snapshot);
    live_verdict = report.empty();
    live_version = version;
    if (report.empty()) {
      candidate.clear();
      stable_checks = 0;
      continue;
    }
    std::set<const Actor*> dead(report.dead.begin(), report.dead.end());
    std::vector<std::pair<const Actor*, uint64_t>> signature;
    for (const WaitNode& node : snapshot) {
      if (dead.count(node.actor) > 0) {
        signature.emplace_back(node.actor, node.epoch);
      }
    }
    std::sort(signature.begin(), signature.end());
    if (signature == candidate) {
      ++stable_checks;
    } else {
      candidate = std::move(signature);
      stable_checks = 1;
    }
    if (stable_checks < kStableChecks) {
      continue;
    }
    // Confirm against the receivers themselves (snapshot state can lag):
    // every dead actor must still be genuinely unable to progress. No
    // wait-graph lock is held here — receiver methods take the consumer's
    // ActorSync mutex, which must stay outermost.
    bool confirmed = true;
    for (const WaitNode& node : snapshot) {
      if (dead.count(node.actor) > 0 && !StillBlocked(node)) {
        confirmed = false;
        break;
      }
    }
    if (!confirmed) {
      candidate.clear();
      stable_checks = 0;
      continue;
    }
    deadlock_status = ConfirmDeadlock(report);
    break;  // stop_ below releases the blocked threads
  }
  stop_ = true;
  WakeAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
  return deadlock_status;
}

Status PNCWFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("PNCWFDirector::Run before Initialize");
  }
  if (options_.mode == PNCWFMode::kSimulatedThreads) {
    return RunSimulated(until);
  }
  return RunThreaded(until);
}

}  // namespace cwf

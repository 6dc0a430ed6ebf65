// The PNCWF director: CONFLuEnCE's original thread-based model of
// computation (based on Kepler's PN, CN and DE directors).
//
// "It enables concurrent execution by wrapping every actor in its own
// thread, allowing them to run in parallel and blocking them whenever there
// are no more data to consume." Resource allocation is handled by the
// Operating System; there is no QoS-aware scheduling — this is the baseline
// STAFiLOS is compared against.
//
// Two execution modes:
//  * kOsThreads — one std::thread per actor with blocking windowed
//    receivers; requires a RealClock. This is the faithful deployment mode.
//    No thread polls. A starved actor parks on its ActorSync condition
//    variable until a deposit, a receiver timeout or flush, stop, or its
//    earliest pending deadline (a receiver's or Actor::NextDeadline()),
//    approached in steps of at most 10 ms. A producer blocked in Put()
//    parks until the consumer takes a window, flushes, times out, or stop.
//    A source parks on its PushChannel until a push, close, its next
//    arrival or kWatchdogPeriod. The Run() loop wakes when a thread parks
//    or exits once every source has finished, and otherwise only every
//    kWatchdogPeriod to revalidate CWF6005 candidates and honour the
//    horizon.
//  * kSimulatedThreads — a deterministic virtual-time simulation of
//    OS round-robin preemptive scheduling (time slice + context-switch and
//    per-event synchronization overheads from the CostModel); requires a
//    VirtualClock. This is the mode the benchmark harness uses to reproduce
//    the paper's Figure 8 deterministically.

#ifndef CONFLUENCE_DIRECTORS_PNCWF_DIRECTOR_H_
#define CONFLUENCE_DIRECTORS_PNCWF_DIRECTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_registry.h"
#include "core/director.h"
#include "core/wait_graph.h"
#include "window/windowed_receiver.h"

namespace cwf {

/// \brief Execution mode of the PNCWF director.
enum class PNCWFMode {
  kOsThreads,
  kSimulatedThreads,
};

/// \brief PNCWF options.
struct PNCWFOptions {
  PNCWFMode mode = PNCWFMode::kSimulatedThreads;
};

class PNCWFDirector : public Director {
 public:
  /// OS-thread mode: the Run() loop's timed fallback (wait-graph watchdog
  /// and horizon checks) and the longest a parked source sleeps, which
  /// bounds how long stop takes to reach it.
  static constexpr std::chrono::milliseconds kWatchdogPeriod{50};

  explicit PNCWFDirector(PNCWFOptions options = {});
  ~PNCWFDirector() override;

  const char* kind() const override { return "PNCWF"; }

  Status Initialize(Workflow* workflow, Clock* clock,
                    const CostModel* cost_model) override;

  std::unique_ptr<Receiver> CreateReceiver(InputPort* port) override;

  Status Run(Timestamp until) override;

  /// \brief Simulated context switches performed (simulation mode).
  uint64_t context_switches() const { return context_switches_; }

  /// \brief OS-thread mode: waits that ended by timeout rather than a
  /// notify, for `actor`'s thread, or for the Run() loop when `actor` is
  /// nullptr. An actor thread with no pending deadline records none.
  uint64_t timed_wakeups(const Actor* actor = nullptr) const;

  /// \brief The channel wait-for graph the artificial-deadlock watchdog
  /// evaluates (core/wait_graph.h). Exposed for tests (report handler,
  /// blocked-count assertions).
  ChannelWaitGraph* wait_graph() { return &wait_graph_; }

 protected:
  /// Plan-bounded channels get blocking-put backpressure under PNCWF: OS
  /// mode blocks the producing thread in Put(); simulated mode defers the
  /// producer's firing while its downstream queue is full.
  OverflowPolicy planned_overflow_policy() const override {
    return OverflowPolicy::kBlock;
  }

  /// Simulated mode: modeled cost plus the per-event synchronization
  /// overhead, advanced on the virtual clock. OS-thread mode: measured.
  Duration ChargeFiring(const Actor* actor, size_t consumed, size_t emitted,
                        Timestamp fire_start) override;

 private:
  /// Per-actor synchronization domain for OS-thread mode (recursive: the
  /// prefire predicate re-enters receiver methods under the lock).
  struct ActorSync {
    OrderedRecursiveMutex mutex{"PNCWFDirector::ActorSync::mutex"};
    std::condition_variable_any cv;
    /// Actor::NextDeadline() as of the thread's last firing, published so
    /// the Run() loop can read it without racing the actor's own state.
    std::atomic<Timestamp> own_deadline{Timestamp::Max()};
    std::atomic<uint64_t> timed_wakeups{0};
  };

  Status RunSimulated(Timestamp until);
  Status RunThreaded(Timestamp until);

  void ActorThreadBody(Actor* actor);
  void SourceThreadBody(Actor* actor);

  /// FireOnce bracketed by the busy_/activity_ bookkeeping the drain check
  /// reads, publishing the actor's next deadline.
  Result<FiringOutcome> FireTracked(Actor* actor, ActorSync* sync);

  /// Whether any plan-bounded queue downstream of `actor` is full — the
  /// simulated-mode stand-in for a producer thread blocked in Put().
  bool DownstreamAtCapacity(const Actor* actor) const;

  bool AllQuiescent() const;

  /// A thread parked or exited: wake the Run() loop when the workflow may
  /// have drained (every source thread has finished).
  void NotifyParked();

  /// Release every parked thread after stop_ is set. Locks each domain
  /// before notifying, so a thread between its stop check and its wait
  /// cannot miss the wakeup.
  void WakeAll();

  /// Wait-graph get edges of an input-starved actor: one alternative list
  /// per connected, windowless input port (skipping ports a registered
  /// window-formation timer will eventually satisfy). Empty when the actor
  /// is not actually waiting on any channel.
  std::vector<std::vector<WaitTarget>> BuildGetWaits(
      const Actor* actor) const;

  /// Revalidate a wait-graph snapshot node against live receiver state:
  /// true when the actor is still genuinely blocked (put: the target
  /// channel is still full and blocking; get: no awaited channel has a
  /// ready window). Takes no wait-graph lock — receiver methods acquire
  /// the consumer's ActorSync mutex, which must stay outermost.
  bool StillBlocked(const WaitNode& node) const;

  /// The artificial deadlock `report` was confirmed against live receiver
  /// state: log it, notify the test handler, cross-validate against the
  /// installed plan's static liveness verdict, and stop all actor threads.
  /// Returns the CWF6005 FailedPrecondition for Run() to surface.
  Status ConfirmDeadlock(const DeadlockReport& report);

  PNCWFOptions options_;
  std::map<const Actor*, std::unique_ptr<ActorSync>> syncs_;
  /// Blocked put/get edges between this workflow's actors; fed by the
  /// blocking receivers and thread bodies, evaluated by the Run() loop.
  ChannelWaitGraph wait_graph_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> busy_{0};
  /// Firings started; an unchanged value across two quiescence checks
  /// confirms the drain.
  std::atomic<uint64_t> activity_{0};
  /// Source threads still running; parks only wake the Run() loop at 0.
  std::atomic<int> sources_running_{0};
  /// The Run() loop's wakeup: bumped by NotifyParked.
  OrderedMutex loop_mutex_{"PNCWFDirector::loop_mutex"};
  std::condition_variable_any loop_cv_;
  uint64_t loop_seq_ CWF_GUARDED_BY(loop_mutex_) = 0;
  std::atomic<uint64_t> loop_timed_wakeups_{0};
  uint64_t context_switches_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_DIRECTORS_PNCWF_DIRECTOR_H_

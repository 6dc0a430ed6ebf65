// The STAFiLOS Abstract Scheduler.
//
// "The Abstract Scheduler component implements most of the basic
// functionality of a scheduler but it is not a complete scheduler. It
// maintains a list of the workflow's actors, and maps them to queues of
// events (sorted by timestamp) that should be propagated to each actor's
// corresponding input ports when they are scheduled for execution. It also
// maintains a mapping between actors and their current state. Three states
// are defined: ACTIVE ... WAITING ... INACTIVE. State transition rules are
// implemented within each scheduler implementation. [It] keeps two priority
// queues, one for the active actors and one for the waiting actors, sorted
// by a function implemented inside a QueueComparator provided by the
// scheduler implementation, and provides hooks where the director can
// signal the scheduler for state changes."
//
// Policies extend this class by implementing the abstract methods:
// HigherPriority (the queue comparator), RecomputeState (the Table-2 state
// transition rules), ChargeCost (quantum accounting) and the iteration
// hooks.

#ifndef CONFLUENCE_STAFILOS_ABSTRACT_SCHEDULER_H_
#define CONFLUENCE_STAFILOS_ABSTRACT_SCHEDULER_H_

#include <optional>
#include <vector>

#include "core/director.h"
#include "core/workflow.h"
#include "stafilos/statistics.h"
#include "window/tm_windowed_receiver.h"

namespace cwf {

/// \brief The three scheduler-visible actor states.
enum class ActorState {
  kActive,    ///< may be considered for firing this iteration
  kWaiting,   ///< waiting for a scheduler event (e.g. re-quantification)
  kInactive,  ///< no events to process
};

const char* ActorStateName(ActorState state);

/// \brief A produced window queued at the scheduler, destined for one
/// receiver buffer.
struct ReadyWindow {
  TMWindowedReceiver* receiver = nullptr;
  Window window;
  Timestamp enqueued_at;
  /// Sort keys (oldest event timestamp; tie-broken by event sequence).
  Timestamp key_ts;
  uint64_t key_seq = 0;
};

/// \brief What a per-actor scheduler queue sorts: a queued window's sort
/// keys plus the index of the window itself in the scheduler's window
/// store. Heap sifts move these 24 bytes, never the window.
struct QueuedWindow {
  Timestamp key_ts;
  uint64_t key_seq = 0;
  uint32_t store_slot = 0;
};

/// \brief Overload protection (the load-shedding integration point the
/// paper's discussion calls out): when an actor's scheduler queue exceeds
/// the cap, newly produced windows are dropped instead of queued.
struct LoadSheddingOptions {
  /// Maximum windows queued (live queue + period buffer) per actor before
  /// shedding kicks in. 0 disables shedding.
  size_t max_queued_windows_per_actor = 0;
};

/// \brief Services the SCWF director provides to schedulers.
class SchedulerHost {
 public:
  virtual ~SchedulerHost() = default;

  /// \brief Current engine time.
  virtual Timestamp Now() const = 0;

  /// \brief Whether a source actor has external data ready to inject.
  virtual bool SourceHasData(const Actor* actor) const = 0;
};

/// \brief Base class of every pluggable CWf scheduling policy.
class AbstractScheduler {
 public:
  virtual ~AbstractScheduler() = default;

  /// \brief Policy name for reports ("QBS", "RR", "RB", ...).
  virtual const char* name() const = 0;

  // ---- Framework wiring (driven by the SCWF director) ----

  /// \brief Register the workflow's actors (one entry per Actor::slot()),
  /// bind the host services and reset the statistics module.
  virtual Status Initialize(SchedulerHost* host, const Workflow& workflow);

  /// \brief A produced window became ready for `target`; queue it (or, for
  /// period-buffered policies, hold it for the next period) and record its
  /// events as arrivals. Returns false when the load shedder dropped it.
  bool Enqueue(Actor* target, ReadyWindow window);

  /// \brief Pop the timestamp-earliest queued window of `actor` (nullopt
  /// when none is queued or the actor is not registered).
  std::optional<ReadyWindow> PopWindow(Actor* actor);

  /// \brief The scheduling decision: next actor to fire, or nullptr to end
  /// the director iteration.
  virtual Actor* GetNextActor();

  /// \brief Director signals: start of a director iteration.
  virtual void OnIterationStart() {}

  /// \brief Director signals: end of a director iteration (active queue
  /// drained). Default behaviour: advance the iteration counter, reset
  /// per-iteration flags, release period buffers (if the policy buffers),
  /// and recompute every actor's state. Policies typically extend this with
  /// re-quantification / priority refresh *before* delegating to the base.
  virtual void OnIterationEnd();

  /// \brief Director signals: a channel into `actor` was attached after
  /// Initialize (a composite's boundary input), so it is no longer a
  /// source.
  void OnInputAttached(const Actor* actor);

  /// \brief Director signals: `actor` completed a firing attempt. `fired`
  /// is false when prefire() rejected (no cost was incurred); otherwise
  /// `outcome` is the firing's record, which feeds the statistics module.
  virtual void OnActorFired(Actor* actor, const FiringOutcome& outcome,
                            bool fired);

  // ---- Introspection (tests, Table-2 verification, benchmarks) ----

  ActorState GetState(const Actor* actor) const;
  size_t QueuedWindows(const Actor* actor) const;
  size_t BufferedWindows(const Actor* actor) const;
  /// \brief Queued events (not windows) across all actors, including
  /// next-period buffers. O(1).
  size_t TotalQueuedEvents() const { return queued_events_; }
  /// \brief Whether GetNextActor() would currently return an actor.
  bool HasImmediateWork();
  uint64_t iteration_count() const { return iterations_; }
  /// \brief The runtime statistics module, fed by Enqueue and OnActorFired.
  const ActorStatistics& statistics() const { return stats_; }

  /// \brief Per-actor designer priority (QBS); smaller = more important.
  void SetActorPriority(const std::string& actor_name, int priority) {
    designer_priorities_[actor_name] = priority;
  }

  /// \brief The designer priority map as assigned so far (the static
  /// analyzer validates it via analysis::SchedulerConfig).
  const std::map<std::string, int>& designer_priorities() const {
    return designer_priorities_;
  }

  /// \brief Turn on (or off, with a zero cap) queue-cap load shedding.
  void SetLoadShedding(LoadSheddingOptions options) {
    shedding_ = options;
  }

  /// \brief Windows dropped by the load shedder so far.
  uint64_t shed_windows() const { return shed_windows_; }

  /// \brief Events inside the dropped windows.
  uint64_t shed_events() const { return shed_events_; }

 protected:
  struct Entry {
    Actor* actor = nullptr;
    bool is_source = false;
    ActorState state = ActorState::kInactive;
    /// Timestamp-sorted min-heap of windows awaiting delivery (front() is
    /// the earliest).
    std::vector<QueuedWindow> queue;
    /// Next-period holding buffer (Rate-Based policy).
    std::vector<QueuedWindow> period_buffer;
    /// Remaining quantum in microseconds (quantum policies).
    double quantum = 0;
    /// Designer-assigned priority (QBS; Linux-style, smaller = higher).
    int designer_priority = 20;
    /// Cached dynamic priority (Rate-Based policy).
    double priority = 0;
    bool fired_this_iteration = false;
    /// Monotone stamp taken on each transition into kActive (FIFO ties).
    uint64_t ready_order = 0;
  };

  // ---- Policy hooks ----

  /// \brief One-time per-actor setup (initial quanta etc.).
  virtual void OnRegister(Entry* entry) { (void)entry; }

  /// \brief Whether freshly produced windows go to the next-period buffer
  /// instead of the live queue (Rate-Based policy).
  virtual bool BufferToNextPeriod() const { return false; }

  /// \brief The queue comparator: true if `a` should fire before `b`
  /// (both ACTIVE).
  virtual bool HigherPriority(const Entry& a, const Entry& b) const = 0;

  /// \brief Apply the policy's state-transition rules to one entry
  /// (the paper's Table 2).
  virtual void RecomputeState(Entry* entry) = 0;

  /// \brief Account a firing's cost (quantum policies decrement here).
  virtual void ChargeCost(Entry* entry, Duration cost) {
    (void)entry;
    (void)cost;
  }

  // ---- Shared machinery ----

  /// \brief The entry of `actor` (entries_[actor->slot()]), or nullptr when
  /// the actor is not registered. O(1).
  Entry* Find(const Actor* actor);
  const Entry* Find(const Actor* actor) const;

  /// \brief Transition helper; stamps ready_order on entry to kActive.
  void SetState(Entry* entry, ActorState state);

  /// \brief Recompute the state of every entry.
  void RecomputeAllStates();

  /// \brief Whether the source has external data available now.
  bool SourceHasData(const Entry& entry) const;

  /// \brief Dispatch a source every `source_interval_` internal firings
  /// ("the source actors are being scheduled in regular intervals"); 0
  /// disables the mechanism.
  int source_interval_ = 0;

  /// One entry per workflow actor, indexed by Actor::slot().
  std::vector<Entry> entries_;
  SchedulerHost* host_ = nullptr;
  ActorStatistics stats_;
  std::map<std::string, int> designer_priorities_;
  uint64_t iterations_ = 0;
  uint64_t internal_firings_since_source_ = 0;
  uint64_t ready_counter_ = 0;
  size_t source_rr_cursor_ = 0;
  size_t queued_events_ = 0;
  LoadSheddingOptions shedding_;
  uint64_t shed_windows_ = 0;
  uint64_t shed_events_ = 0;

 private:
  /// Park `window` in the store (reusing a free slot); returns its slot.
  uint32_t Store(ReadyWindow window);

  /// Windows referenced by the QueuedWindow handles of every queue and
  /// period buffer. A popped slot is moved out (so it keeps no record
  /// alive) and goes on free_slots_ for reuse.
  std::vector<ReadyWindow> store_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace cwf

#endif  // CONFLUENCE_STAFILOS_ABSTRACT_SCHEDULER_H_

// Channel wait-for graph: runtime artificial-deadlock detection.
//
// PR 3 gave bounded receivers blocking-put backpressure under the PNCWF
// director, which imports the classic hazard of Kahn/PN execution with
// bounded buffers: a cycle of actors each blocked on a full downstream
// channel (Put) or an empty upstream window (Get) hangs forever without any
// thread being "deadlocked" in the lock sense — the lock-order registry
// (common/lock_registry.h) cannot see it. This module mirrors that
// registry's shape one level up, over *channel* wait edges:
//
//   - blocked producers register a put edge (waiter -> consumer of the full
//     channel) for the duration of the blocking Put;
//   - blocked consumers register a get edge set: one alternative list per
//     windowless input port (the port unblocks when ANY alternative channel
//     forms a window; the actor needs ALL ports — AND of ORs);
//   - EvaluateWaitGraph computes the actors that can never progress (a
//     least-fixpoint over "a blocked actor is live iff what it waits on is
//     live") and extracts one witness cycle for the report;
//   - the PNCWF director checks the graph from its Run() loop once per
//     watchdog period, confirms a stable candidate against actual receiver
//     state, and turns the former silent hang into a CWF6005
//     FailedPrecondition naming the cycle.
//
// The static liveness pass (analysis/liveness_pass.h) reuses
// EvaluateWaitGraph on simulated states so the runtime report and the
// static witness render identically.

#ifndef CONFLUENCE_CORE_WAIT_GRAPH_H_
#define CONFLUENCE_CORE_WAIT_GRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/lock_registry.h"
#include "common/thread_annotations.h"

namespace cwf {

class Actor;
class Receiver;

/// \brief One channel an idle actor is waiting on.
struct WaitTarget {
  /// The actor whose progress would unblock the waiter: the consumer of a
  /// full channel (put edges) or the producer of an empty one (get edges).
  const Actor* actor = nullptr;
  /// The receiver at the consuming end of the channel (nullptr when the
  /// edge comes from a static simulation rather than a live receiver).
  const Receiver* receiver = nullptr;
  /// Human-readable channel name, "A.out -> B.in[0]".
  std::string channel;
  /// The channel's capacity bound (0 = unbounded; informational).
  size_t capacity = 0;
};

/// \brief The complete wait state of one blocked actor.
struct WaitNode {
  const Actor* actor = nullptr;
  std::string actor_name;
  /// True: blocked in Put against a full downstream receiver (put_targets).
  /// False: blocked for input windows (get_ports).
  bool put_blocked = false;
  /// Put edges: the full channel(s) the deposit is blocked against.
  std::vector<WaitTarget> put_targets;
  /// Get edges: one alternative list per windowless input port. The port is
  /// satisfied by ANY alternative; the actor needs EVERY port (AND of ORs).
  std::vector<std::vector<WaitTarget>> get_ports;
  /// Unblock generation at snapshot time; a changed epoch between checks
  /// means the actor made progress and the candidate must be discarded.
  uint64_t epoch = 0;
};

/// \brief One edge of a witness cycle.
struct DeadlockEdge {
  const Actor* waiter = nullptr;
  const Actor* waits_on = nullptr;
  std::string waiter_name;
  std::string waits_on_name;
  bool put_blocked = false;
  std::string channel;
  size_t capacity = 0;

  /// "A -blocked put-> B on 'A.out -> B.in[0]' (capacity 2)".
  std::string ToString() const;
};

/// \brief Result of evaluating a wait snapshot: the dead set plus one
/// witness cycle through it.
struct DeadlockReport {
  /// Actors that can never progress (empty = the snapshot is live).
  std::vector<const Actor*> dead;
  std::vector<std::string> dead_names;
  /// One cycle through the dead set demonstrating the deadlock.
  std::vector<DeadlockEdge> cycle;

  bool empty() const { return dead.empty(); }

  /// "A -> B -> A" over the witness cycle's actor names.
  std::string CycleString() const;

  /// Full CWF6005-style report: the cycle edge by edge plus the dead set.
  std::string ToString() const;
};

/// \brief Least-fixpoint liveness evaluation over a snapshot of blocked
/// actors. An actor absent from `blocked` is live; a put-blocked actor is
/// live iff every put target is live; a get-blocked actor is live iff every
/// port has at least one live alternative. Pure function: no locking, no
/// receiver access — callers validate the snapshot against live receiver
/// state separately.
DeadlockReport EvaluateWaitGraph(const std::vector<WaitNode>& blocked);

/// \brief Registry of currently-blocked actors for one director instance.
///
/// Mirrors the LockRegistry pattern: cheap O(1) registration on the
/// blocking paths, detection work deferred to the watchdog check. All state
/// is guarded by one mutex; Snapshot() copies it out so evaluation and
/// receiver-state validation never run under this lock (registration
/// happens while the consumer's ActorSync mutex is held, so holding
/// mutex_ while touching receivers would invert that order).
class ChannelWaitGraph {
 public:
  ChannelWaitGraph() = default;
  ~ChannelWaitGraph();

  ChannelWaitGraph(const ChannelWaitGraph&) = delete;
  ChannelWaitGraph& operator=(const ChannelWaitGraph&) = delete;

  // ---- Channel metadata (director Initialize) ----

  /// \brief Forget all channel metadata and wait state (re-Initialize).
  void Reset() CWF_EXCLUDES(mutex_);

  /// \brief Record who produces into `receiver` and the channel's display
  /// name, so blocking-put registration (which only knows the receiver) can
  /// be resolved to a wait edge.
  void RegisterChannel(const Receiver* receiver, const Actor* producer,
                       const Actor* consumer, std::string channel)
      CWF_EXCLUDES(mutex_);

  const Actor* ProducerOf(const Receiver* receiver) const
      CWF_EXCLUDES(mutex_);
  std::string ChannelName(const Receiver* receiver) const
      CWF_EXCLUDES(mutex_);

  // ---- Registration (blocking Put/Get paths) ----

  /// \brief `waiter` entered a blocking Put against `receiver` (which must
  /// have been registered). No-op when either pointer is unknown.
  void OnPutBlocked(const Actor* waiter, const Receiver* receiver)
      CWF_EXCLUDES(mutex_);

  /// \brief The blocking Put completed (or was abandoned on stop).
  void OnPutUnblocked(const Actor* waiter) CWF_EXCLUDES(mutex_);

  /// \brief `waiter` is idle for want of input windows; `ports` holds one
  /// alternative list per still-windowless port. Re-registration while
  /// already blocked updates the edges without bumping the epoch. An empty
  /// `ports` unregisters (nothing is actually awaited).
  void OnGetBlocked(const Actor* waiter,
                    std::vector<std::vector<WaitTarget>> ports)
      CWF_EXCLUDES(mutex_);

  /// \brief The idle actor found a window (or exited its loop).
  void OnGetUnblocked(const Actor* waiter) CWF_EXCLUDES(mutex_);

  // ---- Watchdog side ----

  /// \brief Currently-blocked actor count (mirrors the obs gauge).
  size_t BlockedCount() const CWF_EXCLUDES(mutex_);

  /// \brief Copy of the current wait state, each node stamped with the
  /// waiter's current unblock epoch.
  std::vector<WaitNode> Snapshot() const CWF_EXCLUDES(mutex_);

  /// \brief Bumped by every registration change: an unchanged value means
  /// an unchanged Snapshot(), so a live verdict still holds.
  uint64_t Version() const CWF_EXCLUDES(mutex_);

  /// \brief Test hook: when set, confirmed deadlock reports are handed to
  /// `handler` (in addition to the error log).
  using ReportHandler = std::function<void(const std::string& report)>;
  void SetReportHandlerForTest(ReportHandler handler) CWF_EXCLUDES(mutex_);
  void InvokeReportHandler(const std::string& report) CWF_EXCLUDES(mutex_);

 private:
  struct Entry {
    bool put_blocked = false;
    std::vector<WaitTarget> put_targets;
    std::vector<std::vector<WaitTarget>> get_ports;
  };
  struct ChannelInfo {
    const Actor* producer = nullptr;
    const Actor* consumer = nullptr;
    std::string name;
  };

  /// Adjusts the cwf_blocked_actors gauge by `delta` (obs builds only).
  static void AdjustBlockedGauge(int64_t delta);

  mutable OrderedMutex mutex_{"ChannelWaitGraph::mutex"};
  std::map<const Receiver*, ChannelInfo> channels_ CWF_GUARDED_BY(mutex_);
  std::map<const Actor*, Entry> blocked_ CWF_GUARDED_BY(mutex_);
  std::map<const Actor*, uint64_t> epochs_ CWF_GUARDED_BY(mutex_);
  uint64_t version_ CWF_GUARDED_BY(mutex_) = 0;
  ReportHandler report_handler_ CWF_GUARDED_BY(mutex_);
};

/// \brief Identifies the actor running on the current thread so blocking
/// receivers can attribute a Put to its producer (the receiver only knows
/// its consumer). The PNCWF actor/source thread bodies install one around
/// each firing.
class ScopedCurrentActor {
 public:
  explicit ScopedCurrentActor(const Actor* actor);
  ~ScopedCurrentActor();

  ScopedCurrentActor(const ScopedCurrentActor&) = delete;
  ScopedCurrentActor& operator=(const ScopedCurrentActor&) = delete;

  /// The actor the current thread is firing, or nullptr outside a firing.
  static const Actor* Current();

 private:
  const Actor* previous_;
};

/// \brief " (while firing actor 'X')" when the current thread is inside a
/// director-managed firing, "" otherwise. Token/Value type-confusion CHECK
/// messages append it so an abort names the actor whose input channel fed
/// the mistyped token instead of dying anonymously.
std::string CurrentActorContext();

}  // namespace cwf

#endif  // CONFLUENCE_CORE_WAIT_GRAPH_H_

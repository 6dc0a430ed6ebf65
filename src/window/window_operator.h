// The window operator that runs on an input queue.
//
// "The windows are calculated by a window operator running on the queue. The
// window operator will try to produce a window whenever it is asked by the
// attached workflow activity. When events expire they are pushed to an
// expired items queue which are optionally handled by another workflow
// activity."
//
// The operator maintains one logical queue per group-by key and implements
// tuple-, time- and wave-based window formation with the five-parameter
// semantics of WindowSpec. Time windows may be closed either by the arrival
// of an event belonging to a later window or by a registered timeout
// (`NextDeadline` / `OnTimeout`), exactly as the TM windowed receiver does in
// the paper.
//
// Expiry is counted, not queued (`expired_count()`): no activity in this
// engine handles expired events, so each is released as soon as it slides
// out of every future window rather than held for the whole run. An
// expired-items activity would come back as a routed output port, not as a
// buffer here.

#ifndef CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_
#define CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/event.h"
#include "core/key_index.h"
#include "window/window_spec.h"

namespace cwf {

/// \brief Stateful window formation over a (possibly partitioned) queue.
///
/// Deposit path ("evaluate the group-by clause, then insert"):
///  - Group-by fields are read through FieldPosition: each field keeps the
///    layout it was last resolved in and its position there, confirmed by
///    one pointer comparison, so a channel whose records share one layout
///    never looks a name up, and records with the same fields in another
///    order still find them.
///  - Groups live in a deque by dense id (stable addresses as it grows),
///    their keys in a KeyIndex (core/key_index.h), hashed and compared
///    through pointers into the event's record: a deposit into an existing
///    group copies and allocates nothing for the key. A group's key token
///    (Window::group_key) is built for its first window, so groups that
///    never emit one (a position seen once) never pay for it. The
///    per-deposit cost does not depend on how many groups exist.
///  - A WindowSpec::IsTrivial() spec skips grouping entirely: each event
///    becomes its own window and no group is created.
///  - Formation deadlines sit in a multimap of (deadline, group id); each
///    group keeps the iterator of its own entry, so re-registering is an
///    O(log n) insert plus an O(1) erase, and equal deadlines fire in
///    registration order.
///
/// Flush() emits groups in ascending key order (Value::operator<, field by
/// field), independent of hash layout or arrival order, so end-of-stream
/// output is deterministic.
///
/// Not thread-safe; callers (receivers) serialize access.
class WindowOperator {
 public:
  explicit WindowOperator(WindowSpec spec);
  // Groups hold iterators into deadline_index_.
  WindowOperator(const WindowOperator&) = delete;
  WindowOperator& operator=(const WindowOperator&) = delete;

  const WindowSpec& spec() const { return spec_; }

  /// \brief Insert an event; any windows it completes are appended to `out`.
  ///
  /// Returns InvalidArgument if the spec has a group-by but the event's token
  /// is not a record carrying all group-by fields.
  Status Put(const CWEvent& event, std::vector<Window>* out);

  /// \brief Earliest instant at which a pending time window must be closed by
  /// a timer; Timestamp::Max() when no timer is needed.
  Timestamp NextDeadline() const;

  /// \brief Close (and emit into `out`) every group window whose deadline is
  /// <= `now`. No-op for non-time windows.
  void OnTimeout(Timestamp now, std::vector<Window>* out);

  /// \brief Force-close any non-empty pending window in every group
  /// (end-of-stream flush).
  void Flush(std::vector<Window>* out);

  /// \brief Events that slid out of every future window over the
  /// operator's lifetime. Expired events are counted, not kept: each one is
  /// released the moment it expires.
  uint64_t expired_count() const { return expired_; }

  /// \brief Events currently buffered across all groups, in O(1).
  ///
  /// Invariant: `pending_` equals the sum over every group of its tuple/time
  /// queue length plus the sizes of its wave buffers. Every path that adds or
  /// removes a buffered event (PutTuple/PutTime/PutWave, CloseTimeWindow,
  /// Flush) adjusts it in the same step. DCHECK builds cross-check it
  /// against CountPendingByWalk() at the end of every Flush and on a sparse
  /// schedule of calls here (see PendingCheckDue()); elsewhere the walk is
  /// never reached.
  size_t PendingEventCount() const;

  /// \brief Number of distinct group-by partitions seen so far.
  size_t GroupCount() const { return groups_.size(); }

  /// \brief Total windows produced over the operator's lifetime.
  uint64_t windows_produced() const { return windows_produced_; }

 private:
  using DeadlineIndex = std::multimap<Timestamp, uint32_t>;

  /// Wave-window bookkeeping, allocated on a group's first wave event.
  struct WaveState {
    // Events buffered per (sub-)wave until the wave is complete; completed
    // waves queue up in completion order.
    std::map<WaveTag, std::vector<CWEvent>> buffers;
    std::map<WaveTag, uint32_t> last_serial;
    std::deque<WaveTag> completed;
    /// Greatest wave already consumed into a produced window; arrivals at
    /// or behind it (wave-tag monotonicity invariant) abort via CWF_DCHECK.
    WaveTag consumed_frontier;
    bool has_consumed_frontier = false;
  };

  /// FIFO of buffered events on a vector. A pop releases the event and
  /// advances a head index; the dead prefix is erased once it is as long as
  /// the live part, so a pop moves one event amortized. Take() hands the
  /// buffer itself to a window.
  class EventQueue {
   public:
    bool empty() const { return head_ == events_.size(); }
    size_t size() const { return events_.size() - head_; }
    std::vector<CWEvent>::const_iterator begin() const {
      return events_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    std::vector<CWEvent>::const_iterator end() const { return events_.end(); }

    /// Append `event`; an empty queue first reserves `expected` slots.
    void Push(const CWEvent& event, size_t expected) {
      if (empty()) {
        events_.reserve(expected);
      }
      events_.push_back(event);
    }

    /// Drop the `n` oldest events, releasing each one (the dead prefix
    /// keeps no record alive).
    void Pop(size_t n);

    /// Every buffered event, oldest first; the queue is left empty and
    /// without a buffer.
    std::vector<CWEvent> Take();

   private:
    std::vector<CWEvent> events_;
    size_t head_ = 0;
  };

  /// One group-by partition. No member allocates at construction.
  struct GroupState {
    /// Tuple/time windows: buffered events, oldest first.
    EventQueue queue;
    // Tuple windows with step > size: events between windows to skip.
    size_t skip_next = 0;
    // -- time windows --
    bool start_set = false;
    Timestamp window_start;  // inclusive; window covers [start, start+size)
    /// Size of the last window that took the queue's buffer (TakeQueue);
    /// the next first event reserves that much.
    size_t last_window_size = 0;
    /// Dense id: the group's key is group_keys_.Key(id).
    uint32_t id = 0;
    /// Key record (key_layout_: group-by field name -> value, in group_by
    /// order), built by KeyToken() for the group's first window; nil until
    /// then and without a group-by.
    Token group_key_token;
    std::unique_ptr<WaveState> waves;
    /// Deadline currently registered in deadline_index_ (Max = none) and,
    /// when registered, its entry there.
    Timestamp registered_deadline = Timestamp::Max();
    DeadlineIndex::iterator deadline_entry;
  };

  /// Resolve `event`'s group, creating it on first sight. Returns
  /// InvalidArgument if the spec has a group-by but the event's token is
  /// not a record carrying all group-by fields.
  Status FindGroup(const CWEvent& event, uint32_t* id);

  /// `g`'s key as a record token (Window::group_key), built on first use.
  const Token& KeyToken(GroupState* g);

  /// A window of `g`'s whole queue that takes the queue's buffer (used
  /// events are consumed): no event is copied, and the group holds no
  /// event memory until its next event.
  Window TakeQueue(GroupState* g);

  /// A window holding a copy of `g`'s queue (events stay buffered).
  Window CopyQueue(GroupState* g);

  void PutTuple(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutTime(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutWave(GroupState* g, const CWEvent& event, std::vector<Window>* out);

  /// Emit the current time window of `g` and slide it forward by `step`.
  void CloseTimeWindow(GroupState* g, std::vector<Window>* out);

  /// Re-register group `id`'s formation deadline in deadline_index_ after
  /// any mutation (keeps NextDeadline()/OnTimeout() off the O(groups) path).
  void UpdateDeadline(uint32_t id, GroupState* g);

  /// O(groups) recount of the buffered events: the DCHECK reference for
  /// `pending_`.
  size_t CountPendingByWalk() const;

  /// True on the first PendingEventCount() call and then once every
  /// max(kPendingCheckPeriod, GroupCount()) calls.
  bool PendingCheckDue() const;

  static constexpr uint64_t kPendingCheckPeriod = 1024;

  WindowSpec spec_;
  /// spec_.IsTrivial(): every event is its own window, no group exists.
  bool trivial_ = false;
  /// One per group-by field, in group_by order.
  std::vector<FieldPosition> key_fields_;
  /// The layout of every group key record (the group_by names).
  RecordLayoutPtr key_layout_;
  /// The key of the event being deposited: pointers into its record.
  std::vector<const Value*> key_scratch_;
  /// Groups by dense id; a deque keeps addresses stable as it grows.
  std::deque<GroupState> groups_;
  /// Every group's key, by group id; empty without a group-by.
  KeyIndex group_keys_;
  /// Pending time-window deadlines, earliest first; ties in registration
  /// order.
  DeadlineIndex deadline_index_;
  /// Events expired so far (see expired_count()).
  uint64_t expired_ = 0;
  uint64_t windows_produced_ = 0;
  /// Events buffered across all groups (see PendingEventCount()).
  size_t pending_ = 0;
  /// PendingEventCount() calls left before the next DCHECK cross-check.
  mutable uint64_t calls_until_check_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_

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

#ifndef CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_
#define CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/event.h"
#include "window/window_spec.h"

namespace cwf {

/// \brief Group-by key: the tuple of Values extracted from a record.
using GroupKey = std::vector<Value>;

/// \brief Stateful window formation over a (possibly partitioned) queue.
///
/// Not thread-safe; callers (receivers) serialize access.
class WindowOperator {
 public:
  explicit WindowOperator(WindowSpec spec);

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

  /// \brief Remove and return events that slid out of every future window.
  std::vector<CWEvent> DrainExpired();

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
  struct GroupState {
    std::deque<CWEvent> queue;
    // Tuple windows with step > size: events between windows to skip.
    size_t skip_next = 0;
    // -- time windows --
    bool start_set = false;
    Timestamp window_start;  // inclusive; window covers [start, start+size)
    // -- wave windows --
    // Events buffered per (sub-)wave until the wave is complete; completed
    // waves queue up in completion order.
    std::map<WaveTag, std::vector<CWEvent>> wave_buffers;
    std::map<WaveTag, uint32_t> wave_last_serial;
    std::deque<WaveTag> completed_waves;
    /// Greatest wave already consumed into a produced window; arrivals at
    /// or behind it (wave-tag monotonicity invariant) abort via CWF_DCHECK.
    WaveTag consumed_wave_frontier;
    bool has_consumed_frontier = false;
    Token group_key_token;
    /// Deadline currently registered in deadline_index_ (Max = none).
    Timestamp registered_deadline = Timestamp::Max();
  };

  Status ExtractKey(const CWEvent& event, GroupKey* key,
                    Token* key_token) const;

  void PutTuple(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutTime(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutWave(GroupState* g, const CWEvent& event, std::vector<Window>* out);

  /// Emit the current time window of `g` and slide it forward by `step`.
  void CloseTimeWindow(GroupState* g, std::vector<Window>* out);

  /// Re-register `g`'s formation deadline in deadline_index_ after any
  /// mutation (keeps NextDeadline()/OnTimeout() off the O(groups) path).
  void UpdateDeadline(const GroupKey& key, GroupState* g);

  Window MakeWindow(const GroupState& g, size_t count) const;

  /// O(groups) recount of the buffered events: the DCHECK reference for
  /// `pending_`.
  size_t CountPendingByWalk() const;

  /// True on the first PendingEventCount() call and then once every
  /// max(kPendingCheckPeriod, GroupCount()) calls.
  bool PendingCheckDue() const;

  static constexpr uint64_t kPendingCheckPeriod = 1024;

  WindowSpec spec_;
  std::map<GroupKey, GroupState> groups_;
  /// Pending time-window deadlines, earliest first.
  std::multimap<Timestamp, GroupKey> deadline_index_;
  std::vector<CWEvent> expired_;
  uint64_t windows_produced_ = 0;
  /// Events buffered across all groups (see PendingEventCount()).
  size_t pending_ = 0;
  /// PendingEventCount() calls left before the next DCHECK cross-check.
  mutable uint64_t calls_until_check_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_

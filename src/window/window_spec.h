// Window semantics on actor-input queues.
//
// CONFLuEnCE attaches windows to the *queues on activity inputs* (not to
// query operators as a DSMS does). Five parameters define the semantics:
//
//   size, step, window_formation_timeout, group-by, delete_used_events
//
// `size`/`step` are measured in tuples, time, or waves. Together with the
// delete_used_events flag they express the hybrid window/consumption modes
// of Adaikkalavan & Chakravarthy (unrestricted / recent / continuous).

#ifndef CONFLUENCE_WINDOW_WINDOW_SPEC_H_
#define CONFLUENCE_WINDOW_WINDOW_SPEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"

namespace cwf {

/// \brief Unit in which window size and step are measured.
enum class WindowUnit {
  kTuples,  ///< count-based windows ("last 4 position reports")
  kTime,    ///< time-based windows ("1 minute, sliding every minute")
  kWaves,   ///< wave-based windows ("all events of one external event")
};

const char* WindowUnitName(WindowUnit unit);

/// \brief Consumption mode shorthand (maps onto delete_used_events + step).
enum class ConsumptionMode {
  kUnrestricted,  ///< events stay until they slide out of range
  kContinuous,    ///< overlapping windows share events (delete on expiry only)
  kRecent,        ///< every produced window consumes its events
};

/// \brief Full description of the window semantics on one input port.
struct WindowSpec {
  WindowUnit unit = WindowUnit::kTuples;

  /// Window extent: tuple count, microseconds, or wave count.
  int64_t size = 1;

  /// Slide between consecutive windows, in the same unit as `size`.
  int64_t step = 1;

  /// For time windows: how long after a window's logical close the receiver
  /// may wait for straggling events before a timer closes it. 0 means the
  /// window closes exactly at its boundary via a registered timeout event.
  /// Negative means "no timeout": only an arriving later event closes it.
  Duration formation_timeout = 0;

  /// Record fields whose values partition the stream into per-key queues.
  std::vector<std::string> group_by;

  /// If true, every event delivered in a produced window is deleted from the
  /// queue (recent/consumption semantics). If false, events persist until
  /// they slide out of all future windows, at which point they expire:
  /// they are counted (WindowOperator::expired_count()) and released.
  bool delete_used_events = false;

  /// \brief Trivial spec: deliver every event alone, consuming it.
  static WindowSpec SingleEvent();

  /// \brief Count-based window of `size` tuples sliding by `step`.
  static WindowSpec Tuples(int64_t size, int64_t step);

  /// \brief Time-based window of `size` sliding by `step` microseconds.
  static WindowSpec Time(Duration size, Duration step);

  /// \brief Wave-synchronization window over `size` complete waves.
  static WindowSpec Waves(int64_t size = 1, int64_t step = 1);

  /// \brief Builder-style group-by setter.
  WindowSpec& GroupBy(std::vector<std::string> fields);

  /// \brief Builder-style consumption flag setter.
  WindowSpec& DeleteUsedEvents(bool del);

  /// \brief Builder-style timeout setter.
  WindowSpec& FormationTimeout(Duration timeout);

  /// \brief Derived consumption mode, for introspection.
  ConsumptionMode consumption_mode() const;

  /// \brief True for the SingleEvent spec: the window operator then hands
  /// each event out as its own window without creating a group.
  bool IsTrivial() const;

  /// \brief Whether windows on this spec can ever hold a formation deadline
  /// (a time window with a non-negative formation_timeout). Receivers on
  /// any other spec never report a NextDeadline(), so directors leave them
  /// out of their timeout sweeps.
  bool HasFormationDeadline() const {
    return unit == WindowUnit::kTime && formation_timeout >= 0;
  }

  /// \brief Reject non-positive sizes/steps, unit mismatches and empty or
  /// repeated group-by fields.
  Status Validate() const;

  std::string ToString() const;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_WINDOW_SPEC_H_

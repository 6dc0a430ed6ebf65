// The TM windowed receiver used by the scheduled (SCWF) director.
//
// Event flow (paper Figure 4): put() evaluates the window semantics; a
// produced window is *not* kept locally — it is enqueued at the consuming
// actor's ready queue inside the scheduler. When the director decides to run
// that actor it dequeues the window and deposits it into this receiver's
// ready queue, making it available to the next get() issued by the actor's
// fire().

#ifndef CONFLUENCE_WINDOW_TM_WINDOWED_RECEIVER_H_
#define CONFLUENCE_WINDOW_TM_WINDOWED_RECEIVER_H_

#include <functional>

#include "common/check.h"
#include "window/windowed_receiver.h"

namespace cwf {

/// \brief Scheduled variant of WindowedReceiver.
class TMWindowedReceiver : public WindowedReceiver {
 public:
  /// Invoked (synchronously, inside put()) whenever a window is produced;
  /// the SCWF director routes it to the scheduler's per-actor event queue.
  using ReadyCallback = std::function<void(TMWindowedReceiver*, Window)>;

  TMWindowedReceiver(InputPort* port, WindowSpec spec, ReadyCallback callback)
      : WindowedReceiver(port, std::move(spec)),
        callback_(std::move(callback)) {}

  /// \brief Director-side: deposit a scheduler-dequeued window on the
  /// inherited ready queue read by the actor's next get().
  ///
  /// Only windows this receiver itself produced (routed out through the
  /// ready callback) may come back: more deliveries than productions means
  /// the director misrouted another receiver's window. Schedulers may
  /// legally reorder deliveries (STAFiLOS pops timestamp-earliest) and may
  /// shed some windows entirely, so only the count is checked.
  void DeliverBuffered(Window w) {
    CWF_DCHECK_MSG(delivered_ < produced_,
                   "window delivered to a receiver that has no outstanding "
                   "produced window (misrouted delivery; "
                       << delivered_ << " delivered, " << produced_
                       << " produced)");
    ++delivered_;
    ready_.push_back(std::move(w));
    RecordDepth();
  }

 protected:
  void OnWindowProduced(Window w) override {
    ++produced_;
    callback_(this, std::move(w));
  }

 private:
  ReadyCallback callback_;
  uint64_t produced_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_TM_WINDOWED_RECEIVER_H_

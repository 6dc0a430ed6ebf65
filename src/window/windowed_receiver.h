// The windowed receiver: CONFLuEnCE's generic receiver type.
//
// "When adding a token into this receiver the generic put() method is used
// ... it inserts the event into the appropriate queue, after evaluating the
// group-by clause. Within the same call it also checks to see if a new
// window is produced and if it does then it stores it into the output queue.
// When the actor ... calls the get() method, a window from the output queue
// is returned."

#ifndef CONFLUENCE_WINDOW_WINDOWED_RECEIVER_H_
#define CONFLUENCE_WINDOW_WINDOWED_RECEIVER_H_

#include <deque>

#include "core/port.h"
#include "core/receiver.h"
#include "window/window_operator.h"

namespace cwf {

/// \brief Receiver that runs a WindowOperator on its queue and hands the
/// consuming actor *windows* rather than raw events.
class WindowedReceiver : public Receiver {
 public:
  WindowedReceiver(InputPort* port, WindowSpec spec)
      : Receiver(port), op_(std::move(spec)) {}

  Status Put(const CWEvent& event) override {
    produced_scratch_.clear();
    CWF_RETURN_NOT_OK(op_.Put(event, &produced_scratch_));
    for (Window& w : produced_scratch_) {
      OnWindowProduced(std::move(w));
    }
    RecordDepth();
    return Status::OK();
  }

  bool HasWindow() const override { return !ready_.empty(); }

  std::optional<Window> Get() override {
    if (ready_.empty()) {
      return std::nullopt;
    }
    Window w = std::move(ready_.front());
    ready_.pop_front();
    return w;
  }

  size_t ReadyWindowCount() const override { return ready_.size(); }

  size_t PendingEventCount() const override { return op_.PendingEventCount(); }

  Timestamp NextDeadline() const override { return op_.NextDeadline(); }

  void OnTimeout(Timestamp now) override {
    produced_scratch_.clear();
    op_.OnTimeout(now, &produced_scratch_);
    for (Window& w : produced_scratch_) {
      OnWindowProduced(std::move(w));
    }
    RecordDepth();
  }

  void Flush() override {
    produced_scratch_.clear();
    op_.Flush(&produced_scratch_);
    for (Window& w : produced_scratch_) {
      OnWindowProduced(std::move(w));
    }
    RecordDepth();
  }

  const WindowOperator& window_operator() const { return op_; }

 protected:
  /// \brief Route a freshly produced window; the default stores it on the
  /// local output queue for the next Get(). The TM variant overrides this to
  /// enqueue at the scheduler instead.
  virtual void OnWindowProduced(Window w) { ready_.push_back(std::move(w)); }

  WindowOperator op_;
  std::deque<Window> ready_;

 private:
  std::vector<Window> produced_scratch_;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_WINDOWED_RECEIVER_H_

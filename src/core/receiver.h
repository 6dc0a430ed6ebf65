// Receivers: the channel endpoints owned by the director.
//
// In Kepler/Ptolemy the receiving end of a channel is a receiver object
// supplied by the *director*, not by the actor — the director thereby
// decides whether communication is synchronous, buffered, windowed, etc.
// CONFLuEnCE introduces windowed receivers; STAFiLOS adds a scheduled
// variant that hands produced windows to the scheduler instead of the actor.

#ifndef CONFLUENCE_CORE_RECEIVER_H_
#define CONFLUENCE_CORE_RECEIVER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "core/event.h"
#include "core/schema.h"

namespace cwf {

class Director;
class InputPort;

namespace obs {
struct ReceiverProbe;
}  // namespace obs

/// \brief What Put() does when a capacity-bounded receiver is full.
enum class OverflowPolicy {
  /// Capacity is advisory: deposits always succeed (the bound still drives
  /// AtCapacity() for director-level backpressure and the high-water mark).
  kUnbounded,
  /// Producers must not deposit while AtCapacity(): the PNCWF OS-thread
  /// receivers block the producing thread until the consumer drains
  /// (backpressure); the simulated director defers the producer's firing.
  kBlock,
};

/// \brief Abstract channel endpoint. Producers call Put(); the consuming
/// actor's fire() obtains windows via Get().
class Receiver {
 public:
  explicit Receiver(InputPort* port) : port_(port) {}
  virtual ~Receiver() = default;

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// \brief Deposit one event arriving over the channel.
  virtual Status Put(const CWEvent& event) = 0;

  /// \brief Whether Get() would currently return a window.
  virtual bool HasWindow() const = 0;

  /// \brief Retrieve the next window, or nullopt when none is ready.
  virtual std::optional<Window> Get() = 0;

  /// \brief Windows ready for retrieval.
  virtual size_t ReadyWindowCount() const = 0;

  /// \brief Events buffered but not yet part of a produced window.
  virtual size_t PendingEventCount() const { return 0; }

  /// \brief Earliest timer this receiver needs (time-window formation
  /// timeouts); Timestamp::Max() when none.
  virtual Timestamp NextDeadline() const { return Timestamp::Max(); }

  /// \brief Fire any window whose formation timeout has passed.
  virtual void OnTimeout(Timestamp now) { (void)now; }

  /// \brief Force-close pending windows (end-of-stream).
  virtual void Flush() {}

  /// \brief The input port this receiver feeds.
  InputPort* port() const { return port_; }

  /// \brief The director whose initialization installed this receiver
  /// (receiver-ownership invariant; nullptr for boundary collectors built
  /// outside a director).
  const Director* owner() const { return owner_; }
  void set_owner(const Director* director) { owner_ = director; }

  // ---- Capacity (static capacity planner → runtime feedback edge) ----

  /// \brief Bound the queue to `capacity` queued units (pending events +
  /// ready windows, i.e. QueueDepth()); 0 restores the unbounded default.
  /// Directors apply the CapacityPlan's per-channel bounds here at
  /// Initialize.
  void SetCapacity(size_t capacity, OverflowPolicy policy) {
    capacity_ = capacity;
    overflow_policy_ = capacity == 0 ? OverflowPolicy::kUnbounded : policy;
  }

  size_t capacity() const { return capacity_; }
  OverflowPolicy overflow_policy() const { return overflow_policy_; }

  /// \brief Current queued units: buffered-but-unwindowed events plus ready
  /// windows — the quantity the planner bounds.
  size_t QueueDepth() const { return PendingEventCount() + ReadyWindowCount(); }

  /// \brief Whether a bounded receiver is full (always false when
  /// unbounded).
  bool AtCapacity() const {
    return capacity_ > 0 && QueueDepth() >= capacity_;
  }

  /// \brief Highest QueueDepth() ever observed after a deposit. Compared
  /// against the planner's per-channel bound (tests); exported as the
  /// maximum of the channel's cwf_receiver_depth gauge.
  uint64_t high_water_mark() const { return high_water_mark_; }
  void ResetHighWaterMark() { high_water_mark_ = 0; }

  // ---- Schema (static schema pass → runtime feedback edge) ----

  /// \brief Attach the channel's resolved token type and display name
  /// ("From.out -> To.in[0]"). Director::Initialize installs both from the
  /// schema pass resolution; the CWF_SCHEMA_CHECK deposit validation in
  /// OutputPort::Broadcast consults them to attribute a mistyped token to
  /// its channel. nullptr detaches (no validation).
  void SetExpectedType(std::shared_ptr<const TokenType> type,
                       std::string channel_name) {
    expected_type_ = std::move(type);
    channel_name_ = std::move(channel_name);
  }

  const TokenType* expected_type() const { return expected_type_.get(); }
  const std::string& channel_name() const { return channel_name_; }

  /// \brief Validate one token against the attached expected type. Returns
  /// a CWF7008 FailedPrecondition naming the channel and offending field on
  /// mismatch (and bumps the cwf_schema_violations counter when metrics are
  /// on); OK when no type is attached.
  Status ValidateDeposit(const Token& token) const;

  // ---- Telemetry (src/obs) ----

  /// \brief Attach the per-channel instrument handles resolved by the
  /// director's WorkflowTelemetry (nullptr detaches; boundary collectors
  /// built outside a director run uninstrumented).
  void set_probe(const obs::ReceiverProbe* probe) { probe_ = probe; }
  const obs::ReceiverProbe* probe() const { return probe_; }

  /// \brief Called once per event deposited (by the delivery paths in
  /// OutputPort::Deliver / composite boundary forwarding), so the puts
  /// counter is independent of how often subclasses refresh the depth.
  void NotePut();

  /// \brief Called by InputPort::Get/GetFrom after a successful window pop
  /// (consumption-side counterpart of NotePut).
  void NoteGet();

  /// \brief Blocking-put receivers report host microseconds a producer
  /// spent blocked against this channel's capacity bound.
  void NoteBlockedMicros(int64_t micros);

 protected:
  /// \brief Update the high-water mark; subclasses call this after every
  /// deposit (Put, timeout/flush window production, scheduled delivery).
  /// Caller provides any locking its Put already uses.
  void RecordDepth() {
    const size_t depth = QueueDepth();
    if (depth > high_water_mark_) {
      high_water_mark_ = depth;
    }
    if (probe_ != nullptr) {
      ProbeDeposit(depth);
    }
  }

  InputPort* port_;

 private:
  /// Out-of-line so this header stays free of obs includes.
  void ProbeDeposit(size_t depth);

  const Director* owner_ = nullptr;
  const obs::ReceiverProbe* probe_ = nullptr;
  std::shared_ptr<const TokenType> expected_type_;
  std::string channel_name_;
  size_t capacity_ = 0;
  OverflowPolicy overflow_policy_ = OverflowPolicy::kUnbounded;
  uint64_t high_water_mark_ = 0;
};

/// \brief The plain FIFO receiver: every event is delivered alone, in arrival
/// order, as a window of size one. Used for trivial (non-windowed) inputs.
class QueueReceiver : public Receiver {
 public:
  explicit QueueReceiver(InputPort* port) : Receiver(port) {}

  Status Put(const CWEvent& event) override {
    queue_.push_back(event);
    RecordDepth();
    return Status::OK();
  }

  bool HasWindow() const override { return !queue_.empty(); }

  std::optional<Window> Get() override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    Window w;
    w.events.push_back(std::move(queue_.front()));
    queue_.pop_front();
    return w;
  }

  size_t ReadyWindowCount() const override { return queue_.size(); }

 private:
  std::deque<CWEvent> queue_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_RECEIVER_H_

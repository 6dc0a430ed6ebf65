// Push communication into the workflow.
//
// CONFLuEnCE supports push communication from external stream sources (the
// paper's actors connect over TCP/HTTP). This module provides the transport
// those actors read from: a thread-safe channel that external producers push
// timestamped tuples into, and that source actors drain "at a rate dictated
// by the director's execution model". For reproducible experiments, a whole
// Trace can be pre-loaded.

#ifndef CONFLUENCE_STREAM_PUSH_CHANNEL_H_
#define CONFLUENCE_STREAM_PUSH_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/lock_registry.h"
#include "core/schema.h"
#include "stream/trace.h"

namespace cwf {

/// \brief Result of a non-aborting deposit attempt.
enum class PushOutcome {
  kAccepted,  ///< tuple queued
  kFull,      ///< bounded channel at capacity; tuple NOT queued
  kClosed,    ///< channel closed; tuple NOT queued
};

/// \brief Thread-safe queue of externally arriving tuples.
class PushChannel {
 public:
  PushChannel() = default;

  /// \brief Bound the queue at `capacity` tuples (0 = unbounded, the
  /// default). With a bound, Offer()/TryPush()/TryPushBatch() refuse
  /// deposits at capacity — the hook per-connection ingest backpressure
  /// hangs off. Preloads (PushTrace) and the aborting Push() ignore the
  /// bound: they are harness-side paths, not network producers.
  void SetCapacity(size_t capacity);

  size_t capacity() const;

  /// \brief Producer side: deposit a tuple arriving at `arrival`.
  /// Pushing into a closed channel violates the engine's shutdown
  /// invariant and aborts; racy producers should use TryPush().
  void Push(Token token, Timestamp arrival);

  /// \brief Producer side, shutdown- and capacity-tolerant: deposit the
  /// tuple unless the channel is closed or (when bounded) full, reporting
  /// which. Network producers react to kFull by pausing their connection
  /// until space_available fires.
  PushOutcome Offer(Token token, Timestamp arrival);

  /// \brief Producer side, shutdown-tolerant: deposit the tuple unless the
  /// channel has been closed or is at capacity. Returns false (dropping
  /// the tuple) when refused — the natural semantics for network producers
  /// that race with engine shutdown. Use Offer() to distinguish full from
  /// closed.
  bool TryPush(Token token, Timestamp arrival);

  /// \brief Producer side, bulk: deposit entries from the front of
  /// `entries` under ONE lock acquisition, stopping at capacity or close.
  /// Returns the count accepted (tokens of accepted entries are moved
  /// from). Lets a network read path deposit a whole decoded buffer
  /// without per-tuple lock traffic; check closed() when 0 comes back to
  /// tell a full channel from a dead one.
  size_t TryPushBatch(std::span<TraceEntry> entries);

  /// \brief Register `cb`, invoked (outside the channel lock, from the
  /// consumer thread) when a bounded channel that refused a deposit drains
  /// back to its resume threshold (half capacity). One registration; pass
  /// nullptr to clear. The callback must be cheap and non-blocking — the
  /// ingest server's is an eventfd wakeup.
  void SetSpaceAvailableCallback(std::function<void()> cb);

  /// \brief Pre-load every entry of a trace (producer side, bulk).
  void PushTrace(const Trace& trace);

  /// \brief Declare the token type this channel carries. Set by the owning
  /// StreamSourceActor from its declared output schema at Initialize; debug
  /// builds (CWF_SCHEMA_CHECK) then validate every pushed token against it,
  /// so a malformed external tuple aborts at the ingestion boundary with a
  /// CWF7008 message naming the channel and field instead of CHECK-failing
  /// deep inside a downstream actor.
  void SetExpectedSchema(TokenType type, std::string channel_name);

  /// \brief The declared token type (unknown when never set). Network
  /// front doors validate against it BEFORE depositing so a malformed
  /// external tuple becomes a counted reject instead of tripping the
  /// channel's CWF7008 abort.
  TokenType expected_schema() const;

  /// \brief Non-fatal boundary check of `token` against the declared
  /// schema (OK when none is declared).
  Status CheckToken(const Token& token) const;

  /// \brief Mark the stream finished: no further pushes will come.
  void Close();

  bool closed() const;

  /// \brief Consumer side: remove and return tuples with arrival <= now,
  /// up to `max_batch` (0 = unlimited).
  std::vector<TraceEntry> PopArrived(Timestamp now, size_t max_batch = 0);

  /// \brief PopArrived() into a caller-owned buffer: appends to `*out`, so a
  /// consumer that keeps one buffer across calls allocates nothing once it
  /// has grown.
  void PopArrived(Timestamp now, size_t max_batch,
                  std::vector<TraceEntry>* out);

  /// \brief Arrival time of the oldest queued tuple; Timestamp::Max() when
  /// empty. Lock-free: reads the front arrival every queue mutation
  /// publishes under the lock.
  Timestamp NextArrival() const {
    return front_arrival_.load(std::memory_order_acquire);
  }

  /// \brief Queued tuple count.
  size_t Pending() const;

  /// \brief Block (real-time mode) until a tuple is queued or the channel is
  /// closed; returns immediately if either already holds.
  void WaitForData() const CWF_EXCLUDES(mutex_);

  /// \brief WaitForData() that gives up after `timeout` of wall time.
  /// Returns whether a tuple is queued or the channel is closed.
  bool WaitForData(std::chrono::microseconds timeout) const
      CWF_EXCLUDES(mutex_);

 private:
  /// \brief CHECK-fails (debug builds) when `token` violates the declared
  /// schema. Caller holds mutex_.
  void ValidateLocked(const Token& token) const CWF_REQUIRES(mutex_);

  /// \brief Whether a deposit must be refused. Caller holds mutex_.
  bool AtCapacityLocked() const CWF_REQUIRES(mutex_) {
    return capacity_ > 0 && queue_.size() >= capacity_;
  }

  /// \brief The space-available callback to run after the current pop, or
  /// nullptr. Caller holds mutex_; the returned copy is invoked unlocked.
  std::function<void()> TakeSpaceSignalLocked() CWF_REQUIRES(mutex_);

  /// \brief Publish the queue front's arrival to NextArrival(). Every
  /// queue mutation calls this before releasing mutex_.
  void PublishFrontLocked() CWF_REQUIRES(mutex_) {
    front_arrival_.store(
        queue_.empty() ? Timestamp::Max() : queue_.front().arrival,
        std::memory_order_release);
  }

  mutable OrderedMutex mutex_{"PushChannel::mutex"};
  mutable std::condition_variable_any cv_;
  std::deque<TraceEntry> queue_ CWF_GUARDED_BY(mutex_);
  /// Arrival of queue_.front() (Max when empty); written under mutex_.
  std::atomic<Timestamp> front_arrival_{Timestamp::Max()};
  bool closed_ CWF_GUARDED_BY(mutex_) = false;
  size_t capacity_ CWF_GUARDED_BY(mutex_) = 0;
  /// A producer was refused with kFull and has not been signaled since.
  bool producer_waiting_ CWF_GUARDED_BY(mutex_) = false;
  std::function<void()> space_cb_ CWF_GUARDED_BY(mutex_);
  TokenType expected_ CWF_GUARDED_BY(mutex_);
  std::string channel_name_ CWF_GUARDED_BY(mutex_);
};

using PushChannelPtr = std::shared_ptr<PushChannel>;

}  // namespace cwf

#endif  // CONFLUENCE_STREAM_PUSH_CHANNEL_H_

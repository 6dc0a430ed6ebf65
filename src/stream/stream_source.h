// Source actors that pump external streams into the workflow.

#ifndef CONFLUENCE_STREAM_STREAM_SOURCE_H_
#define CONFLUENCE_STREAM_STREAM_SOURCE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/actor.h"
#include "stream/push_channel.h"

namespace cwf {

/// \brief Interface directors use to ask any source about pending external
/// data (for virtual-time advancement and source scheduling).
class TimedSource {
 public:
  virtual ~TimedSource() = default;

  /// \brief Arrival time of the next not-yet-injected external tuple;
  /// Timestamp::Max() when none is queued.
  virtual Timestamp NextPendingArrival() const = 0;

  /// \brief Whether the external stream can still deliver data (not closed
  /// or tuples still queued).
  virtual bool Exhausted() const = 0;

  /// \brief Real-time mode: block until new external data may be ready (a
  /// push or close) or `timeout` of wall time elapses. Returns false on
  /// timeout.
  virtual bool WaitForData(std::chrono::microseconds timeout) const = 0;
};

/// \brief An actor that injects tuples from a PushChannel.
///
/// Each firing drains the tuples whose arrival time has passed (bounded by
/// `max_batch_per_firing`) and emits them stamped with their *arrival* time,
/// so queueing delay before entering the workflow counts toward response
/// time — the effect that penalizes the Rate-Based scheduler in the paper's
/// Figure 8.
class StreamSourceActor : public Actor, public TimedSource {
 public:
  StreamSourceActor(std::string name, PushChannelPtr channel,
                    size_t max_batch_per_firing = 0);

  /// \brief The single output port ("out").
  OutputPort* out() const { return out_; }

  PushChannel* channel() const { return channel_.get(); }

  /// \brief Propagates the declared output schema (OutputPort::set_schema)
  /// onto the push channel so debug builds validate external tuples at the
  /// ingestion boundary.
  Status Initialize(ExecutionContext* ctx) override;

  Result<bool> Prefire() override;
  Status Fire() override;

  Timestamp NextPendingArrival() const override {
    return channel_->NextArrival();
  }

  bool Exhausted() const override {
    return channel_->closed() && channel_->Pending() == 0;
  }

  bool WaitForData(std::chrono::microseconds timeout) const override {
    return channel_->WaitForData(timeout);
  }

  /// \brief Tuples injected so far.
  uint64_t injected() const { return injected_; }

 private:
  PushChannelPtr channel_;
  size_t max_batch_;
  OutputPort* out_;
  /// Each firing's batch; kept so its capacity is reused.
  std::vector<TraceEntry> batch_;
  uint64_t injected_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_STREAM_STREAM_SOURCE_H_

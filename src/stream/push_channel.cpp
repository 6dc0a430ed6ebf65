#include "stream/push_channel.h"

#include "common/check.h"

#ifdef CWF_OBS_ENABLED
#include "obs/metrics.h"
#include "obs/telemetry.h"
#endif

namespace cwf {

namespace {

void BumpSchemaViolationCounter() {
#ifdef CWF_OBS_ENABLED
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().SetHelp(
        "cwf_schema_violations",
        "Tokens rejected by the runtime channel schema check (CWF7008)");
    obs::MetricsRegistry::Global().GetCounter("cwf_schema_violations")->Add(1);
  }
#endif
}

}  // namespace

void PushChannel::SetExpectedSchema(TokenType type, std::string channel_name) {
  ScopedLock lock(mutex_);
  expected_ = std::move(type);
  channel_name_ = std::move(channel_name);
}

TokenType PushChannel::expected_schema() const {
  ScopedLock lock(mutex_);
  return expected_;
}

Status PushChannel::CheckToken(const Token& token) const {
  ScopedLock lock(mutex_);
  if (expected_.is_unknown()) {
    return Status::OK();
  }
  return expected_.CheckToken(token);
}

void PushChannel::SetCapacity(size_t capacity) {
  ScopedLock lock(mutex_);
  capacity_ = capacity;
}

size_t PushChannel::capacity() const {
  ScopedLock lock(mutex_);
  return capacity_;
}

void PushChannel::SetSpaceAvailableCallback(std::function<void()> cb) {
  ScopedLock lock(mutex_);
  space_cb_ = std::move(cb);
}

void PushChannel::ValidateLocked(const Token& token) const {
  if (expected_.is_unknown()) {
    return;
  }
  Status check = expected_.CheckToken(token);
  if (check.ok()) {
    return;
  }
  BumpSchemaViolationCounter();
  CWF_ASSERT_MSG(false, "CWF7008: runtime schema violation on push channel '"
                            << channel_name_ << "': " << check.message());
}

void PushChannel::Push(Token token, Timestamp arrival) {
  {
    ScopedLock lock(mutex_);
    CWF_ASSERT_MSG(!closed_, "Push() on a closed channel");
#if CWF_SCHEMA_CHECK_IS_ON
    ValidateLocked(token);
#endif
    queue_.push_back({arrival, std::move(token)});
    PublishFrontLocked();
  }
  cv_.notify_all();
}

PushOutcome PushChannel::Offer(Token token, Timestamp arrival) {
  {
    ScopedLock lock(mutex_);
    if (closed_) {
      return PushOutcome::kClosed;
    }
    if (AtCapacityLocked()) {
      producer_waiting_ = true;
      return PushOutcome::kFull;
    }
#if CWF_SCHEMA_CHECK_IS_ON
    ValidateLocked(token);
#endif
    queue_.push_back({arrival, std::move(token)});
    PublishFrontLocked();
  }
  cv_.notify_all();
  return PushOutcome::kAccepted;
}

bool PushChannel::TryPush(Token token, Timestamp arrival) {
  return Offer(std::move(token), arrival) == PushOutcome::kAccepted;
}

size_t PushChannel::TryPushBatch(std::span<TraceEntry> entries) {
  size_t accepted = 0;
  {
    ScopedLock lock(mutex_);
    if (closed_) {
      return 0;
    }
    for (TraceEntry& entry : entries) {
      if (AtCapacityLocked()) {
        producer_waiting_ = true;
        break;
      }
#if CWF_SCHEMA_CHECK_IS_ON
      ValidateLocked(entry.token);
#endif
      queue_.push_back({entry.arrival, std::move(entry.token)});
      ++accepted;
    }
    PublishFrontLocked();
  }
  if (accepted > 0) {
    cv_.notify_all();
  }
  return accepted;
}

void PushChannel::PushTrace(const Trace& trace) {
  {
    ScopedLock lock(mutex_);
    CWF_ASSERT_MSG(!closed_, "PushTrace() on a closed channel");
    for (const TraceEntry& e : trace.entries()) {
#if CWF_SCHEMA_CHECK_IS_ON
      ValidateLocked(e.token);
#endif
      queue_.push_back(e);
    }
    PublishFrontLocked();
  }
  cv_.notify_all();
}

std::function<void()> PushChannel::TakeSpaceSignalLocked() {
  // Signal once the queue has drained to half its bound (hysteresis: a
  // resumed producer gets a burst of space, not a one-tuple window), or on
  // close (so a paused producer learns the channel is gone).
  if (!producer_waiting_ || !space_cb_) {
    return nullptr;
  }
  const size_t resume_at = capacity_ / 2;  // 0 for capacity 1: full drain
  if (!closed_ && capacity_ > 0 && queue_.size() > resume_at) {
    return nullptr;
  }
  producer_waiting_ = false;
  return space_cb_;
}

void PushChannel::Close() {
  std::function<void()> signal;
  {
    ScopedLock lock(mutex_);
    closed_ = true;
    signal = TakeSpaceSignalLocked();
  }
  cv_.notify_all();
  if (signal) {
    signal();
  }
}

bool PushChannel::closed() const {
  ScopedLock lock(mutex_);
  return closed_;
}

std::vector<TraceEntry> PushChannel::PopArrived(Timestamp now,
                                                size_t max_batch) {
  std::vector<TraceEntry> out;
  PopArrived(now, max_batch, &out);
  return out;
}

void PushChannel::PopArrived(Timestamp now, size_t max_batch,
                             std::vector<TraceEntry>* out) {
  size_t popped = 0;
  std::function<void()> signal;
  {
    ScopedLock lock(mutex_);
    while (!queue_.empty() && queue_.front().arrival <= now &&
           (max_batch == 0 || popped < max_batch)) {
      out->push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++popped;
    }
    if (popped > 0) {
      PublishFrontLocked();
      signal = TakeSpaceSignalLocked();
    }
  }
  if (signal) {
    signal();
  }
}

size_t PushChannel::Pending() const {
  ScopedLock lock(mutex_);
  return queue_.size();
}

// ts-allowlist: condition-variable wait — the release/reacquire cycle of
// cv_.wait() on a std::unique_lock is a lock pattern the thread-safety
// analysis cannot model (see common/thread_annotations.h).
void PushChannel::WaitForData() const CWF_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<OrderedMutex> lock(mutex_);
  while (queue_.empty() && !closed_) {
    // cwf-tidy-allow(cwf-unbounded-wait): predicate is the enclosing while
    cv_.wait(lock);
  }
}

// ts-allowlist: condition-variable wait (see WaitForData() above).
bool PushChannel::WaitForData(std::chrono::microseconds timeout) const
    CWF_NO_THREAD_SAFETY_ANALYSIS {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<OrderedMutex> lock(mutex_);
  while (queue_.empty() && !closed_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  return !queue_.empty() || closed_;
}

}  // namespace cwf

#include "core/receiver.h"

#include "core/port.h"
#include "obs/telemetry.h"

#ifdef CWF_OBS_ENABLED
#include "obs/metrics.h"
#endif

// The probe helpers live out of line so core/receiver.h does not pull the
// obs headers into every translation unit that touches a receiver.

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

Status Receiver::ValidateDeposit(const Token& token) const {
  if (expected_type_ == nullptr) {
    return Status::OK();
  }
  Status check = expected_type_->CheckToken(token);
  if (check.ok()) {
    return check;
  }
  BumpSchemaViolationCounter();
  return Status::FailedPrecondition(
      "CWF7008: runtime schema violation on channel '" +
      (channel_name_.empty() ? port_->FullName() : channel_name_) +
      "': " + check.message());
}

void Receiver::ProbeDeposit(size_t depth) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  probe_->depth->Set(static_cast<int64_t>(depth));
}

void Receiver::NotePut() {
  if (probe_ == nullptr || !obs::MetricsEnabled()) {
    return;
  }
  probe_->puts->Add(1);
}

void Receiver::NoteGet() {
  if (probe_ == nullptr || !obs::MetricsEnabled()) {
    return;
  }
  probe_->gets->Add(1);
  // No depth refresh here: the depth gauge is deposit-sampled (QueueDepth()
  // is O(1), read on every deposit). A get only shrinks the queue, so the
  // high-water mark cannot be missed.
}

void Receiver::NoteBlockedMicros(int64_t micros) {
  if (probe_ == nullptr || micros <= 0 || !obs::MetricsEnabled()) {
    return;
  }
  probe_->blocked_us->Add(static_cast<uint64_t>(micros));
}

}  // namespace cwf

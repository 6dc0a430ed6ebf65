#include "core/port.h"

#include "core/actor.h"
#include "obs/telemetry.h"

namespace cwf {
#ifdef CWF_OBS_ENABLED
namespace {

/// Profiler cell of a receiver's deposit/retrieval phases; nullptr (inert
/// scope) for unprobed receivers (telemetry off, boundary collectors).
const obs::ProfileSite* PutSite(const Receiver* r) {
  return r->probe() == nullptr ? nullptr : r->probe()->put_site;
}

const obs::ProfileSite* GetSite(const Receiver* r) {
  return r->probe() == nullptr ? nullptr : r->probe()->get_site;
}

}  // namespace
#endif

std::string Port::FullName() const {
  return (actor_ ? actor_->name() : std::string("<detached>")) + "." + name_;
}

Receiver* InputPort::SetReceiver(size_t channel,
                                 std::unique_ptr<Receiver> receiver) {
  if (receivers_.size() <= channel) {
    receivers_.resize(channel + 1);
  }
  receivers_[channel] = std::move(receiver);
  return receivers_[channel].get();
}

Receiver* InputPort::receiver(size_t channel) const {
  if (channel >= receivers_.size()) {
    return nullptr;
  }
  return receivers_[channel].get();
}

bool InputPort::HasWindow() const {
  for (const auto& r : receivers_) {
    if (r && r->HasWindow()) {
      return true;
    }
  }
  return false;
}

bool InputPort::HasWindowOn(size_t channel) const {
  const Receiver* r = receiver(channel);
  return r != nullptr && r->HasWindow();
}

std::optional<Window> InputPort::Get() {
  for (auto& r : receivers_) {
    if (r && r->HasWindow()) {
      CWF_PROFILE_SCOPE(GetSite(r.get()));
      std::optional<Window> w = r->Get();
      if (w.has_value()) {
        if (actor_ != nullptr) {
          actor_->NoteConsumedWindow(*w);
        }
        r->NoteGet();
      }
      return w;
    }
  }
  return std::nullopt;
}

std::optional<Window> InputPort::GetFrom(size_t channel) {
  Receiver* r = receiver(channel);
  if (r == nullptr) {
    return std::nullopt;
  }
  CWF_PROFILE_SCOPE(GetSite(r));
  std::optional<Window> w = r->Get();
  if (w.has_value()) {
    if (actor_ != nullptr) {
      actor_->NoteConsumedWindow(*w);
    }
    r->NoteGet();
  }
  return w;
}

size_t InputPort::ReadyWindowCount() const {
  size_t count = 0;
  for (const auto& r : receivers_) {
    if (r) {
      count += r->ReadyWindowCount();
    }
  }
  return count;
}

size_t InputPort::PendingEventCount() const {
  size_t count = 0;
  for (const auto& r : receivers_) {
    if (r) {
      count += r->PendingEventCount();
    }
  }
  return count;
}

Status OutputPort::Broadcast(const CWEvent& event) {
  for (Receiver* r : remote_receivers_) {
#if CWF_SCHEMA_CHECK_IS_ON
    // Validate the deposit against the channel's resolved schema before it
    // crosses into the consumer: a violation surfaces here as an attributed
    // CWF7008 error instead of a CHECK-fail deep inside the consuming
    // actor. Compiled out in release builds (CONFLUENCE_DCHECKS=OFF).
    CWF_RETURN_NOT_OK(r->ValidateDeposit(event.token));
#endif
    CWF_PROFILE_SCOPE(PutSite(r));
    CWF_RETURN_NOT_OK(r->Put(event));
    r->NotePut();
  }
  return Status::OK();
}

}  // namespace cwf

#include "directors/ddf_director.h"

namespace cwf {

DDFDirector::DDFDirector(DDFOptions options) : options_(options) {}

std::unique_ptr<Receiver> DDFDirector::CreateReceiver(InputPort* port) {
  return std::make_unique<WindowedReceiver>(port, port->spec());
}

Result<size_t> DDFDirector::FireReadyOnce() {
  size_t fired = 0;
  for (const auto& actor : workflow_->actors()) {
    Actor* a = actor.get();
    if (IsHalted(a)) {
      continue;
    }
    auto ready = a->Prefire();
    if (!ready.ok()) {
      return ready.status();
    }
    if (!ready.value()) {
      continue;
    }
    CWF_RETURN_NOT_OK(FireOnce(a).status());
    ++fired;
  }
  return fired;
}

Status DDFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("DDFDirector::Run before Initialize");
  }
  uint64_t fired_this_run = 0;
  for (;;) {
    FireReceiverTimeouts(clock_->Now());
    CWF_ASSIGN_OR_RETURN(size_t fired, FireReadyOnce());
    fired_this_run += fired;
    if (options_.max_firings_per_run != 0 &&
        fired_this_run > options_.max_firings_per_run) {
      return Status::ResourceExhausted(
          "DDF fired more than max_firings_per_run; livelock?");
    }
    if (fired > 0) {
      continue;
    }
    // Quiescent at the current instant. Advance virtual time to the next
    // scheduled wakeup if one exists within the horizon.
    const Timestamp next = NextWakeup();
    if (!clock_->is_virtual() || next == Timestamp::Max() || next > until ||
        next <= clock_->Now()) {
      break;
    }
    clock_->AdvanceTo(next);
  }
  return Status::OK();
}

}  // namespace cwf

#include "stream/stream_source.h"

namespace cwf {

StreamSourceActor::StreamSourceActor(std::string name, PushChannelPtr channel,
                                     size_t max_batch_per_firing)
    : Actor(std::move(name)),
      channel_(std::move(channel)),
      max_batch_(max_batch_per_firing) {
  CWF_CHECK_MSG(channel_ != nullptr, "StreamSourceActor needs a channel");
  out_ = AddOutputPort("out");
}

Status StreamSourceActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  if (!out_->schema().is_unknown()) {
    channel_->SetExpectedSchema(out_->schema(), name() + ".out");
  }
  return Status::OK();
}

Result<bool> StreamSourceActor::Prefire() {
  return channel_->NextArrival() <= ctx_->clock->Now();
}

Status StreamSourceActor::Fire() {
  const Timestamp now = ctx_->clock->Now();
  channel_->PopArrived(now, max_batch_, &batch_);
  for (TraceEntry& e : batch_) {
    SendStamped(out_, std::move(e.token), e.arrival);
    ++injected_;
  }
  batch_.clear();  // holds no token between firings
  return Status::OK();
}

}  // namespace cwf

#include "core/composite_actor.h"

namespace cwf {

CompositeActor::CompositeActor(std::string name,
                               std::unique_ptr<Director> inner_director)
    : Actor(std::move(name)),
      inner_workflow_(this->name() + ".inner"),
      inner_director_(std::move(inner_director)) {
  CWF_CHECK_MSG(inner_director_ != nullptr,
                "CompositeActor needs an inner director");
}

CompositeActor::~CompositeActor() = default;

InputPort* CompositeActor::ExposeInput(const std::string& name,
                                       InputPort* inner_port,
                                       WindowSpec outer_spec) {
  CWF_CHECK_MSG(inner_port != nullptr, "null inner port");
  InputPort* outer = AddInputPort(name, std::move(outer_spec));
  // The boundary inherits the inner port's schema requirement so outer
  // channels are checked against it without a separate declaration.
  outer->set_required_schema(inner_port->required_schema());
  input_bindings_.push_back({outer, inner_port, nullptr});
  return outer;
}

OutputPort* CompositeActor::ExposeOutput(const std::string& name,
                                         OutputPort* inner_port) {
  CWF_CHECK_MSG(inner_port != nullptr, "null inner port");
  OutputPort* outer = AddOutputPort(name);
  outer->set_schema(inner_port->schema());
  OutputBinding binding;
  binding.outer = outer;
  binding.inner = inner_port;
  output_bindings_.push_back(std::move(binding));
  return outer;
}

Status CompositeActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  // The inner director stamps events with the outer counters so sequence
  // numbers and wave identities stay globally consistent.
  inner_director_->AdoptContext(ctx);
  const CostModel* cost_model =
      ctx->director != nullptr ? ctx->director->cost_model() : nullptr;
  CWF_RETURN_NOT_OK(
      inner_director_->Initialize(&inner_workflow_, ctx->clock, cost_model));

  // Wire boundary inputs: an exposed inner port gets a receiver from the
  // inner director; outer events are deposited into it directly. It is
  // installed through the inner director, which registers it for its
  // timeout sweeps even though the inner Initialize has already returned.
  for (InputBinding& binding : input_bindings_) {
    if (binding.inner->actor() == nullptr ||
        inner_workflow_.FindActor(binding.inner->actor()->name()) !=
            binding.inner->actor()) {
      return Status::InvalidArgument(
          "exposed input port does not belong to the inner workflow of " +
          name());
    }
    binding.inner_receiver = inner_director_->InstallReceiver(
        binding.inner, binding.inner->ChannelCount());
  }

  // Wire boundary outputs: the exposed inner port broadcasts into a
  // collector drained after each inner run.
  for (OutputBinding& binding : output_bindings_) {
    if (binding.inner->actor() == nullptr ||
        inner_workflow_.FindActor(binding.inner->actor()->name()) !=
            binding.inner->actor()) {
      return Status::InvalidArgument(
          "exposed output port does not belong to the inner workflow of " +
          name());
    }
    binding.collector_port =
        std::make_unique<InputPort>(nullptr, "collector:" + binding.outer->name(),
                                    WindowSpec::SingleEvent());
    binding.collector =
        std::make_unique<CollectorReceiver>(binding.collector_port.get());
    binding.inner->AddRemoteReceiver(binding.collector.get());
  }
  return Status::OK();
}

Result<bool> CompositeActor::Prefire() {
  auto base = Actor::Prefire();
  if (!base.ok() || base.value()) {
    return base;
  }
  // No full set of outer windows — but fire anyway if any outer port has
  // data or an inner deadline expired (inner sub-workflows decide
  // themselves what they can process).
  for (const auto& port : input_ports()) {
    if (port->HasWindow()) {
      return true;
    }
  }
  return NextDeadline() <= ctx_->clock->Now();
}

Status CompositeActor::Fire() {
  // 1. Relay every ready outer window inward, event by event (windows formed
  //    at the boundary then re-form inside per the inner ports' specs).
  for (InputBinding& binding : input_bindings_) {
    while (binding.outer->HasWindow()) {
      std::optional<Window> w = binding.outer->Get();
      if (!w.has_value()) {
        break;
      }
      for (const CWEvent& event : w->events) {
        CWF_RETURN_NOT_OK(binding.inner_receiver->Put(event));
        binding.inner_receiver->NotePut();
      }
    }
  }

  // 2. Run the inner model of computation to quiescence at the current
  //    instant (inner directors do not advance the clock).
  CWF_RETURN_NOT_OK(inner_director_->Run(ctx_->clock->Now()));

  // 3. Relay whatever reached the boundary collectors outward; the outer
  //    director will stamp these as outputs of this composite firing.
  for (OutputBinding& binding : output_bindings_) {
    for (CWEvent& event : binding.collector->Drain()) {
      Send(binding.outer, std::move(event.token));
    }
  }
  return Status::OK();
}

Status CompositeActor::Wrapup() {
  CWF_RETURN_NOT_OK(inner_director_->Wrapup());
  return Actor::Wrapup();
}

InputPort* CompositeActor::BoundInnerInput(const InputPort* outer) const {
  for (const InputBinding& b : input_bindings_) {
    if (b.outer == outer) {
      return b.inner;
    }
  }
  return nullptr;
}

OutputPort* CompositeActor::BoundInnerOutput(const OutputPort* outer) const {
  for (const OutputBinding& b : output_bindings_) {
    if (b.outer == outer) {
      return b.inner;
    }
  }
  return nullptr;
}

}  // namespace cwf

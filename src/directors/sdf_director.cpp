#include "directors/sdf_director.h"

#include <utility>

#include "analysis/sdf_balance.h"

namespace cwf {

Status SDFDirector::Initialize(Workflow* workflow, Clock* clock,
                               const CostModel* cost_model) {
  CWF_RETURN_NOT_OK(Director::Initialize(workflow, clock, cost_model));
  CWF_ASSIGN_OR_RETURN(analysis::SdfSolution solution,
                       analysis::SolveSdf(*workflow));
  repetitions_ = std::move(solution.repetitions);
  schedule_ = std::move(solution.schedule);
  return Status::OK();
}

std::unique_ptr<Receiver> SDFDirector::CreateReceiver(InputPort* port) {
  return std::make_unique<WindowedReceiver>(port, port->spec());
}

Result<int64_t> SDFDirector::Repetitions(const Actor* actor) const {
  auto it = repetitions_.find(actor);
  if (it == repetitions_.end()) {
    return Status::NotFound("actor '" + actor->name() +
                            "' not in SDF repetition vector");
  }
  return it->second;
}

Status SDFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("SDFDirector::Run before Initialize");
  }
  (void)until;
  // Execute schedule iterations while at least one actor of the iteration
  // can actually fire (runtime data may run short of the static rates —
  // e.g. boundary inputs of a composite — in which case ready actors fire
  // and starved ones are skipped; a pass firing nothing terminates).
  for (;;) {
    size_t fired = 0;
    for (Actor* a : schedule_) {
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
    if (fired == 0) {
      break;
    }
  }
  return Status::OK();
}

}  // namespace cwf

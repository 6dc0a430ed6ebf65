#include "core/cost_model.h"

namespace cwf {

const CostParams& CostModel::ParamsFor(const std::string& actor_name) const {
  auto it = per_actor_.find(actor_name);
  return it == per_actor_.end() ? default_params_ : it->second;
}

Duration CostModel::FiringCost(const std::string& actor_name,
                               size_t input_events,
                               size_t output_events) const {
  return ParamsFor(actor_name).Cost(input_events, output_events);
}

}  // namespace cwf

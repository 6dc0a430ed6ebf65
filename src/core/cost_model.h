// Actor-cost model for virtual-time execution.
//
// Under a VirtualClock the engine charges each actor invocation a modeled
// duration instead of measuring host nanoseconds; the directors additionally
// charge their own dispatch/synchronization overheads. This is the
// substitution for the paper's wall-clock runs on a 2007 dual Xeon: actor
// logic executes for real, only the *time accounting* is modeled, so runs
// are deterministic and the scheduler comparison is platform-independent.
// Under a RealClock the cost model is bypassed and real elapsed time is
// measured.

#ifndef CONFLUENCE_CORE_COST_MODEL_H_
#define CONFLUENCE_CORE_COST_MODEL_H_

#include <map>
#include <string>

#include "common/time.h"

namespace cwf {

class Actor;

/// \brief Per-actor invocation cost parameters.
struct CostParams {
  /// Fixed cost charged on every firing.
  Duration base = 100;
  /// Added per event consumed in the firing.
  Duration per_input_event = 10;
  /// Added per event produced by the firing.
  Duration per_output_event = 10;

  /// \brief Modeled duration of one firing that consumed `input_events`
  /// and produced `output_events` (the one cost formula).
  Duration Cost(size_t input_events, size_t output_events) const {
    return base + per_input_event * static_cast<Duration>(input_events) +
           per_output_event * static_cast<Duration>(output_events);
  }
};

/// \brief Modeled execution costs for a workflow, plus the per-director
/// overheads that distinguish scheduled dispatch from thread-based
/// execution.
///
/// Directors resolve each actor's CostParams once, at Director::Initialize,
/// and charge firings from that table. A SetActorCost() or SetDefault()
/// made after Initialize therefore takes effect at the next Initialize.
class CostModel {
 public:
  CostModel() = default;

  /// \brief Cost applied to actors with no specific entry.
  void SetDefault(CostParams params) { default_params_ = params; }
  const CostParams& default_params() const { return default_params_; }

  /// \brief Override the cost of one actor by name.
  void SetActorCost(const std::string& actor_name, CostParams params) {
    per_actor_[actor_name] = params;
  }

  /// \brief Parameters in effect for `actor_name`.
  const CostParams& ParamsFor(const std::string& actor_name) const;

  /// \brief Modeled duration of one firing (ParamsFor(actor_name).Cost).
  Duration FiringCost(const std::string& actor_name, size_t input_events,
                      size_t output_events) const;

  /// Scheduled (SCWF) dispatch overhead per firing: one priority-queue pop,
  /// one event transfer into the port buffer.
  Duration scheduled_dispatch_overhead = 5;

  /// Thread-based (PNCWF) overhead per context switch between actor
  /// threads. This is what caps the thread-based director's capacity below
  /// the STAFiLOS schedulers' in the paper's Figure 8.
  Duration context_switch_overhead = 40;

  /// Thread-based per-event synchronization surcharge (mutex + condvar
  /// signalling on every put/get crossing a thread boundary).
  Duration sync_per_event_overhead = 15;

  /// Simulated OS round-robin slice for thread-based execution.
  Duration os_time_slice = 10000;

 private:
  CostParams default_params_;
  std::map<std::string, CostParams> per_actor_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_COST_MODEL_H_

// The STAFiLOS actor-statistics module.
//
// "The statistics module keeps track of the cost of each actor (i.e., time
// per invocation), actor input rates and actor output rates, which are in
// turn used to calculate the selectivity of the actor. These statistics are
// dynamically calculated during runtime and are updated with each actor's
// invocation."
//
// It additionally derives the *global* (downstream-aggregated) selectivity
// and cost of Sharaf et al. used by the Rate-Based scheduler: for actor A
// with local selectivity s_A and per-event cost c_A,
//   S_global(A) = s_A * Σ_paths S_global(D),   C_global(A) = c_A + s_A * Σ C_global(D)
// summing over A's downstream actors (paths are added up when an actor is
// shared among multiple workflow paths).

#ifndef CONFLUENCE_STAFILOS_STATISTICS_H_
#define CONFLUENCE_STAFILOS_STATISTICS_H_

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "core/workflow.h"

namespace cwf {

/// \brief Runtime statistics of one actor.
struct ActorStats {
  uint64_t invocations = 0;
  Duration total_cost = 0;
  /// Exponentially smoothed cost per invocation (µs).
  double ewma_cost = 0;

  /// Events consumed / produced by firings (for selectivity).
  uint64_t events_consumed = 0;
  uint64_t events_produced = 0;

  /// Events that arrived at the actor's queues (for input rate).
  uint64_t events_arrived = 0;

  /// Exponentially smoothed arrival/output rates (events per second).
  double input_rate = 0;
  double output_rate = 0;
  Timestamp last_arrival{0};
  Timestamp last_output{0};

  /// \brief Mean cost per invocation in microseconds.
  double AvgCost() const {
    return invocations == 0
               ? 0.0
               : static_cast<double>(total_cost) /
                     static_cast<double>(invocations);
  }

  /// \brief Mean cost per consumed event in microseconds (falls back to
  /// per-invocation cost for sources, which consume nothing).
  double AvgCostPerEvent() const {
    if (events_consumed == 0) {
      return AvgCost();
    }
    return static_cast<double>(total_cost) /
           static_cast<double>(events_consumed);
  }

  /// \brief Local selectivity: produced per consumed event (1.0 until the
  /// actor has consumed anything).
  double Selectivity() const {
    if (events_consumed == 0) {
      return 1.0;
    }
    return static_cast<double>(events_produced) /
           static_cast<double>(events_consumed);
  }
};

/// \brief Statistics registry of a STAFiLOS scheduler.
///
/// AbstractScheduler owns one and feeds it from the hooks the SCWF director
/// signals: Enqueue records admitted arrivals, OnActorFired records
/// completed firings. Telemetry does not feed it, so schedulers keep their
/// statistics with metrics collection off or compiled out.
class ActorStatistics {
 public:
  /// \brief EWMA smoothing factor for costs and rates.
  explicit ActorStatistics(double alpha = 0.2) : alpha_(alpha) {}

  /// \brief Register all actors of a workflow (resets prior data). The
  /// tables are indexed by Actor::slot(); recording for an actor of any
  /// other workflow CWF_CHECK-fails.
  void Initialize(const Workflow& workflow);

  /// \brief Record a completed firing.
  void OnFiring(const Actor* actor, Duration cost, size_t consumed,
                size_t produced, Timestamp now);

  /// \brief Record `n` events arriving at `actor`'s input queues.
  void OnEventsArrived(const Actor* actor, size_t n, Timestamp now);

  /// \brief Stats of one actor (zeroed entry if not registered).
  const ActorStats& Get(const Actor* actor) const;

  /// \brief Recompute the downstream-aggregated metrics (call at period
  /// boundaries; cycles are cut off conservatively).
  void RecomputeGlobal();

  /// \brief Global selectivity of Sharaf et al. (RecomputeGlobal first).
  double GlobalSelectivity(const Actor* actor) const;

  /// \brief Global cost (µs per input event) of Sharaf et al.
  double GlobalCost(const Actor* actor) const;

  /// \brief Dynamic Rate-Based priority Pr(A) = S_global / C_global.
  double RatePriority(const Actor* actor) const;

 private:
  struct Global {
    double selectivity = 1.0;
    double cost = 1.0;
  };

  /// DFS state of one slot during RecomputeGlobal.
  enum class Visit : uint8_t { kUnvisited, kVisiting, kDone };

  /// Whether `actor` occupies its slot of the registered workflow.
  bool Registered(const Actor* actor) const {
    return actor->slot() < stats_.size() &&
           workflow_->actors()[actor->slot()].get() == actor;
  }

  /// Registered(actor)'s slot; CWF_CHECK-fails otherwise.
  size_t SlotOf(const Actor* actor) const;

  Global ComputeGlobal(const Actor* actor, std::vector<Visit>* visits);

  double alpha_;
  const Workflow* workflow_ = nullptr;
  /// Indexed by Actor::slot().
  std::vector<ActorStats> stats_;
  std::vector<Global> global_;
  ActorStats empty_;
};

}  // namespace cwf

#endif  // CONFLUENCE_STAFILOS_STATISTICS_H_

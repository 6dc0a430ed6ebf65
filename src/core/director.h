// The director: a workflow's controlling entity.
//
// The director defines the execution and communication models of the
// workflow: it creates the receivers, transitions actors through their
// lifecycle stages, and — acting as the CONFLuEnCE timekeeper — stamps
// every produced token with a timestamp and a wave-tag before broadcasting
// it downstream.

#ifndef CONFLUENCE_CORE_DIRECTOR_H_
#define CONFLUENCE_CORE_DIRECTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/clock.h"
#include "core/cost_model.h"
#include "core/receiver.h"
#include "core/workflow.h"
#include "obs/telemetry.h"

namespace cwf {

class TimedSource;

namespace analysis {
struct CapacityPlan;
}  // namespace analysis

/// \brief What one firing did (Director::FireOnce).
struct FiringOutcome {
  /// Engine-time cost charged by Director::ChargeFiring.
  Duration cost = 0;
  size_t consumed = 0;
  size_t emitted = 0;
  /// postfire() returned false; the actor is now marked halted.
  bool halted = false;
};

/// \brief Base class of every model of computation.
class Director {
 public:
  Director() = default;
  virtual ~Director() = default;

  Director(const Director&) = delete;
  Director& operator=(const Director&) = delete;

  /// \brief Short identifier of the model of computation ("PNCWF", "SCWF",
  /// "SDF", "DDF").
  virtual const char* kind() const = 0;

  /// \brief Bind the workflow, build all receivers, initialize all actors.
  ///
  /// `cost_model` may be nullptr when running on a real clock (real elapsed
  /// time is measured instead of modeled).
  virtual Status Initialize(Workflow* workflow, Clock* clock,
                            const CostModel* cost_model);

  /// \brief Execute until the clock passes `until`, until all work drains,
  /// or until every actor halted via postfire() — whichever comes first.
  virtual Status Run(Timestamp until) = 0;

  /// \brief Invoke wrapup() on every actor.
  virtual Status Wrapup();

  /// \brief Factory for the receiver this model of computation places at the
  /// consuming end of a channel into `port`.
  virtual std::unique_ptr<Receiver> CreateReceiver(InputPort* port) = 0;

  /// \brief Create this director's receiver for `channel` of `port`, install
  /// it on the port and mark it as owned by this director. A receiver whose
  /// spec can hold a formation deadline (WindowSpec::HasFormationDeadline)
  /// joins the deadline list the timeout sweeps and NextWakeup() walk. Every
  /// receiver a director drives is installed here: BuildReceivers() for the
  /// workflow's channels, CompositeActor::Initialize for boundary inputs
  /// (created after the inner director's Initialize returned).
  Receiver* InstallReceiver(InputPort* port, size_t channel);

  /// \brief Stamp and broadcast the outputs an actor buffered during its
  /// firing (timekeeper role; see class comment). `emitted` reports how many
  /// events were sent.
  Status FlushActorOutputs(Actor* actor, size_t* emitted = nullptr);

  Workflow* workflow() const { return workflow_; }
  Clock* clock() const { return clock_; }
  const CostModel* cost_model() const { return cost_model_; }
  ExecutionContext* context() { return ctx_; }

  /// \brief Share an enclosing director's execution context (sequence and
  /// wave-id counters). Used by composite actors so inner sub-workflows
  /// stamp events consistently with the outer workflow. Must be called
  /// before Initialize().
  void AdoptContext(ExecutionContext* ctx) { ctx_ = ctx; }

  /// \brief Whether actor halted itself (postfire returned false) since the
  /// last Initialize(). One atomic flag per slot, so PNCWF actor threads
  /// read it concurrently without a lock. `actor` must belong to the bound
  /// workflow (CWF_CHECK).
  bool IsHalted(const Actor* actor) const {
    return halted_[SlotOf(actor)].load(std::memory_order_acquire);
  }

  /// \brief Install a static capacity plan (analysis/capacity_planner.h) to
  /// be consumed by the next Initialize(): BuildReceivers() pre-sizes every
  /// planned channel to its bound with this director's overflow policy
  /// (planned_overflow_policy()). Call before Initialize(); pass-by-value is
  /// copied, the plan does not need to outlive this call.
  void set_capacity_plan(const analysis::CapacityPlan& plan);

  /// \brief Remove an installed plan (subsequent initializations build
  /// unbounded receivers again).
  void clear_capacity_plan() { capacity_plan_.reset(); }

  /// \brief The installed plan, or nullptr.
  const analysis::CapacityPlan* capacity_plan() const {
    return capacity_plan_.get();
  }

  /// \brief Opt out of the MoC-aware static analysis gate in Initialize()
  /// (analysis::VerifyForDirector); plain Workflow::Validate() still runs.
  /// For experiments that deliberately construct inadmissible graphs.
  void set_static_analysis_enabled(bool enabled) {
    static_analysis_enabled_ = enabled;
  }
  bool static_analysis_enabled() const { return static_analysis_enabled_; }

  /// \brief Earliest future instant at which new work appears with no new
  /// firing: a pending source arrival, a window-formation deadline on any
  /// receiver, or an actor-internal deadline. Max() when none.
  virtual Timestamp NextWakeup() const;

  /// \brief Whether a Run() call right now would fire at least one actor
  /// (events queued, windows ready or a wakeup due). Used by the top-level
  /// scheduler of the multi-workflow framework.
  virtual bool HasPendingWork() const;

  /// \brief Firings completed since the last Initialize(). Thread-safe.
  uint64_t total_firings() const {
    return total_firings_.load(std::memory_order_relaxed);
  }

 protected:
  /// \brief The firing protocol every model of computation shares: fire and
  /// stamp the outputs, charge the cost (ChargeFiring), postfire, report one
  /// FiringRecord to telemetry, and mark the actor halted when postfire
  /// says so. Call only after the director's own readiness check (prefire)
  /// passed. Fire and postfire run under the actor's profile scopes.
  Result<FiringOutcome> FireOnce(Actor* actor);

  /// \brief Engine-time cost of one firing that began at `fire_start`,
  /// charged between fire and postfire. The base returns the modeled cost
  /// (the actor's CostParams, resolved at Initialize) on a virtual clock
  /// without moving it (an inner composite director runs inside its
  /// parent's firing) and the elapsed engine time on a real clock.
  /// Directors that own the timeline override this to add their dispatch
  /// overhead and advance the clock.
  virtual Duration ChargeFiring(const Actor* actor, size_t consumed,
                                size_t emitted, Timestamp fire_start);

  /// \brief Close every timed window whose formation deadline passed, on
  /// every deadline receiver (InstallReceiver), in installation order.
  void FireReceiverTimeouts(Timestamp now);

  /// \brief Create a receiver for every channel and register it with both
  /// ends; called from Initialize(). With a capacity plan installed, planned
  /// channels are bounded to their per-channel capacity.
  Status BuildReceivers();

  /// \brief `actor`'s index in the bound workflow. CWF_CHECK-fails for an
  /// actor of any other workflow: every per-actor table is indexed by it.
  size_t SlotOf(const Actor* actor) const {
    const size_t slot = actor->slot();
    CWF_CHECK_MSG(workflow_ != nullptr && slot < workflow_->actors().size() &&
                      workflow_->actors()[slot].get() == actor,
                  "actor '" << actor->name() << "' is not part of workflow "
                            << (workflow_ == nullptr ? std::string("<none>")
                                                     : workflow_->name()));
    return slot;
  }

  /// \brief `actor` as a TimedSource (resolved at Initialize), or nullptr.
  const TimedSource* TimedSourceOf(const Actor* actor) const {
    return timed_sources_[SlotOf(actor)];
  }

  /// \brief Overflow policy applied to plan-bounded receivers. The default
  /// keeps capacity advisory (bound + high-water mark only); the PNCWF
  /// director overrides this with kBlock to get blocking-put backpressure.
  virtual OverflowPolicy planned_overflow_policy() const {
    return OverflowPolicy::kUnbounded;
  }

  /// \brief Set `actor`'s halted flag (FireOnce, when postfire returns
  /// false). Lock-free like IsHalted; Initialize() clears every flag.
  void MarkHalted(const Actor* actor) {
    halted_[SlotOf(actor)].store(true, std::memory_order_release);
  }

  obs::WorkflowTelemetry telemetry_;
  Workflow* workflow_ = nullptr;
  Clock* clock_ = nullptr;
  const CostModel* cost_model_ = nullptr;
  ExecutionContext own_ctx_;
  ExecutionContext* ctx_ = &own_ctx_;
  bool initialized_ = false;
  bool static_analysis_enabled_ = true;
  /// Atomic: OS-thread PNCWF fires from one thread per actor.
  std::atomic<uint64_t> total_firings_{0};
  /// shared_ptr so the header only needs the forward declaration.
  std::shared_ptr<const analysis::CapacityPlan> capacity_plan_;
  /// Liveness verdict of the installed plan under this deployment, stamped
  /// by Initialize() when the plan's bounds will actually block
  /// ("provably-live", "unknown", ...; empty when not analyzed). The PNCWF
  /// watchdog cross-validates against it: a runtime deadlock on a
  /// provably-live plan is an engine bug, not a planning error.
  std::string installed_plan_liveness_;

 private:
  /// Resolve the per-slot tables below for the bound workflow.
  void ResolveActorTables();

  // ---- Dispatch tables, rebuilt by every Initialize and indexed by slot ----

  /// dynamic_cast<const TimedSource*> of each actor (nullptr: not one).
  std::vector<const TimedSource*> timed_sources_;
  /// CostParams of each actor (empty without a cost model).
  std::vector<CostParams> costs_;
  /// Halted flag of each actor; atomics because OS-thread PNCWF actor
  /// threads set and read them concurrently with the drain loop.
  std::vector<std::atomic<bool>> halted_;
  /// Receivers that can hold a formation deadline, in installation order
  /// (channel order, then composite boundary inputs); see InstallReceiver.
  std::vector<Receiver*> deadline_receivers_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_DIRECTOR_H_

// Actors: the independent components a workflow is composed of.
//
// Actors implement the Kepler lifecycle — initialize, prefire, fire,
// postfire, wrapup — and communicate only through ports. They are unaware
// of the model of computation: the director owns receivers, timing and
// scheduling. During fire() an actor buffers its outputs via Send(); the
// director flushes them afterwards, stamping wave-tags and timestamps (the
// "timekeeping components" of CONFLuEnCE).

#ifndef CONFLUENCE_CORE_ACTOR_H_
#define CONFLUENCE_CORE_ACTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/clock.h"
#include "core/port.h"

namespace cwf {

class Director;
class Workflow;

/// \brief Shared execution services a director hands to its actors.
struct ExecutionContext {
  Clock* clock = nullptr;
  Director* director = nullptr;

  /// \brief Next global event sequence number.
  uint64_t NextSeq() { return seq.fetch_add(1, std::memory_order_relaxed); }

  /// \brief Next external-event (wave root) identity.
  uint64_t NextExternalId() {
    return external_id.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> seq{1};
  std::atomic<uint64_t> external_id{1};
};

/// \brief Wave/timestamp context of the firing currently in progress:
/// derived from the newest event the actor consumed, it determines the
/// stamps on the events the firing produces.
struct FiringContext {
  bool valid = false;
  WaveTag wave;
  Timestamp timestamp;
  uint64_t max_seq = 0;
  size_t events_consumed = 0;

  void Reset() { *this = FiringContext(); }

  /// \brief Fold one consumed window into the context (newest event wins).
  void Absorb(const Window& window);
};

/// \brief An output buffered during fire(), flushed by the director.
struct PendingOutput {
  OutputPort* port = nullptr;
  Token token;
  /// Sources stamp the *external* arrival time of the tuple, which may
  /// precede the flush instant (time spent queued before entering the
  /// workflow counts toward response time).
  std::optional<Timestamp> external_timestamp;
  /// Set by SendPreserved(): re-emit with this exact wave-tag and last-in-
  /// wave flag (plus external_timestamp) instead of joining the firing's
  /// wave — used by actors that buffer events across firings (e.g. a
  /// simulated network link) and must not launder their provenance.
  std::optional<WaveTag> wave_override;
  bool last_in_wave_override = true;
};

/// \brief Base class of every workflow component.
class Actor {
 public:
  explicit Actor(std::string name);
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const std::string& name() const { return name_; }

  /// \brief slot() of an actor no workflow owns.
  static constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();

  /// \brief Dense index of this actor in its owning workflow
  /// (`workflow.actors()[slot()] == this`), assigned by
  /// Workflow::AdoptActor; kNoSlot until adopted. Directors, schedulers,
  /// telemetry and statistics index their per-actor tables by it.
  size_t slot() const { return slot_; }

  // ---- Lifecycle (invoked by the director) ----

  /// \brief One-time setup; receivers exist by the time this runs.
  virtual Status Initialize(ExecutionContext* ctx);

  /// \brief Whether the actor is ready to fire. Default: every connected
  /// input port has at least one ready window.
  virtual Result<bool> Prefire();

  /// \brief Consume windows from input ports, compute, Send() outputs.
  virtual Status Fire() = 0;

  /// \brief Post-firing bookkeeping; returning false asks the director to
  /// stop invoking this actor.
  virtual Result<bool> Postfire();

  /// \brief One-time teardown at end of execution.
  virtual Status Wrapup();

  // ---- Structure ----

  /// \brief Declare an input port. `spec` defines its window semantics.
  InputPort* AddInputPort(const std::string& name,
                          WindowSpec spec = WindowSpec::SingleEvent());

  /// \brief Declare an output port.
  OutputPort* AddOutputPort(const std::string& name);

  /// \brief Look up a port by name (nullptr if absent).
  InputPort* GetInputPort(const std::string& name) const;
  OutputPort* GetOutputPort(const std::string& name) const;

  const std::vector<std::unique_ptr<InputPort>>& input_ports() const {
    return input_ports_;
  }
  const std::vector<std::unique_ptr<OutputPort>>& output_ports() const {
    return output_ports_;
  }

  /// \brief Whether this actor injects external data (no connected inputs).
  /// Schedulers treat sources specially (paper §3.1).
  virtual bool IsSource() const;

  /// \brief Earliest future instant at which this actor needs to run even
  /// without new input (e.g. a composite whose inner workflow holds a timed
  /// window awaiting its formation timeout). Max() when none.
  virtual Timestamp NextDeadline() const { return Timestamp::Max(); }

  // ---- SDF rate declarations ----

  /// \brief Windows consumed per firing on `port` (SDF balance equations).
  virtual int64_t ConsumptionRate(const InputPort* port) const;

  /// \brief Tokens produced per firing on `port`.
  virtual int64_t ProductionRate(const OutputPort* port) const;

  // ---- Schema transfer (schema pass) ----

  /// \brief The type of tokens `port` emits, given the resolved types of
  /// this actor's input ports (`inputs[i]` matches `input_ports()[i]`; an
  /// entry is Unknown when nothing was declared or inferred upstream).
  ///
  /// The default returns the port's declared schema (OutputPort::set_schema)
  /// untouched. Transforming actors override this to act as a transfer
  /// function — e.g. identity forwards (filters, delays) return the joined
  /// input type, a join merges its two input layouts, a projection narrows
  /// the input layout. The schema pass calls this once per propagation
  /// round; it must be pure.
  virtual TokenType OutputTokenType(const OutputPort* port,
                                    const std::vector<TokenType>& inputs) const;

  // ---- Output buffering (called from Fire) ----

  /// \brief Buffer a token for emission on `port`; the director stamps and
  /// broadcasts it after fire() returns.
  void Send(OutputPort* port, Token token);

  /// \brief Source variant: also records the tuple's external arrival time.
  void SendStamped(OutputPort* port, Token token, Timestamp external_ts);

  /// \brief Re-emit a previously received event with its timestamp, wave-tag
  /// and last-in-wave flag intact (for actors that hold events across
  /// firings and forward them later).
  void SendPreserved(OutputPort* port, const CWEvent& original);

  // ---- Director-side hooks ----

  /// \brief Reset firing context and output buffer before fire().
  void BeginFiring();

  /// \brief Hand the buffered outputs over, leaving the buffer empty.
  std::vector<PendingOutput> TakePendingOutputs();

  /// \brief The buffered outputs, for the director to stamp and broadcast
  /// in place (Director::FlushActorOutputs clears them afterwards, keeping
  /// the buffer's capacity for the next firing).
  std::vector<PendingOutput>& pending_outputs() { return pending_outputs_; }

  /// \brief Called by InputPort::Get to update the firing context.
  void NoteConsumedWindow(const Window& window);

  const FiringContext& firing_context() const { return firing_context_; }

  ExecutionContext* context() const { return ctx_; }

  /// \brief Completed firings since initialization.
  uint64_t total_firings() const { return total_firings_; }
  void IncrementFirings() { ++total_firings_; }

 protected:
  /// \brief Transfer-function helper for identity-forwarding actors
  /// (filters, delays, unions, throttles): the port's declared schema when
  /// set, else the join of every input type.
  TokenType IdentityTokenType(const OutputPort* port,
                              const std::vector<TokenType>& inputs) const;

  ExecutionContext* ctx_ = nullptr;

 private:
  friend class Workflow;  // assigns slot_

  std::string name_;
  size_t slot_ = kNoSlot;
  std::vector<std::unique_ptr<InputPort>> input_ports_;
  std::vector<std::unique_ptr<OutputPort>> output_ports_;
  std::vector<PendingOutput> pending_outputs_;
  FiringContext firing_context_;
  uint64_t total_firings_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_ACTOR_H_

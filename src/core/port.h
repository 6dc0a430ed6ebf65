// Ports: the communication interfaces of actors.
//
// Actors exchange tokens through input and output ports; a connection
// between an output and an input port is a channel. The receiver at the
// consuming end is created by the director when the workflow is initialized,
// which is how a single workflow specification can execute under different
// models of computation.

#ifndef CONFLUENCE_CORE_PORT_H_
#define CONFLUENCE_CORE_PORT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/receiver.h"
#include "window/window_spec.h"

namespace cwf {

class Actor;
class OutputPort;

/// \brief Base port: a named attachment point on an actor.
class Port {
 public:
  Port(Actor* actor, std::string name)
      : actor_(actor), name_(std::move(name)) {}
  virtual ~Port() = default;

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  Actor* actor() const { return actor_; }
  const std::string& name() const { return name_; }

  /// \brief "ActorName.portName".
  std::string FullName() const;

 protected:
  Actor* actor_;
  std::string name_;
};

/// \brief A consuming port. Window semantics (WindowSpec) are a property of
/// the input port; the director instantiates a matching receiver per
/// incoming channel.
class InputPort : public Port {
 public:
  InputPort(Actor* actor, std::string name, WindowSpec spec)
      : Port(actor, std::move(name)), spec_(std::move(spec)) {}

  const WindowSpec& spec() const { return spec_; }

  /// \brief Declare what this port requires of incoming tokens. The schema
  /// pass (analysis/schema_pass.h) checks every incoming channel's resolved
  /// producer type against it (CWF70xx); default Unknown = no requirement.
  void set_required_schema(TokenType type) {
    required_schema_ = std::move(type);
  }
  const TokenType& required_schema() const { return required_schema_; }

  /// \brief Install the director-supplied receiver for channel `channel`.
  /// Grows the channel list as needed. Returns the raw receiver.
  Receiver* SetReceiver(size_t channel, std::unique_ptr<Receiver> receiver);

  /// \brief Receiver of channel `channel` (nullptr if unconnected).
  Receiver* receiver(size_t channel = 0) const;

  /// \brief Number of channels fanning into this port.
  size_t ChannelCount() const { return receivers_.size(); }

  /// \brief Whether any channel has a ready window.
  bool HasWindow() const;

  /// \brief Whether channel `channel` has a ready window.
  bool HasWindowOn(size_t channel) const;

  /// \brief Pop the next ready window, scanning channels round-robin from
  /// channel 0. Records the read in the owning actor's firing context (used
  /// for wave stamping of the outputs of this firing).
  std::optional<Window> Get();

  /// \brief Pop the next ready window of one specific channel.
  std::optional<Window> GetFrom(size_t channel);

  /// \brief Sum of ready windows over all channels.
  size_t ReadyWindowCount() const;

  /// \brief Sum of buffered-but-unwindowed events over all channels.
  size_t PendingEventCount() const;

 private:
  WindowSpec spec_;
  TokenType required_schema_;
  std::vector<std::unique_ptr<Receiver>> receivers_;
};

/// \brief A producing port. When an actor fires, the director flushes the
/// actor's buffered outputs through this port to every remote receiver
/// ("broadcast to all the remote downstream receivers connected to it").
class OutputPort : public Port {
 public:
  OutputPort(Actor* actor, std::string name) : Port(actor, std::move(name)) {}

  /// \brief Declare the type of every token this port emits. The schema
  /// pass propagates it downstream; transforming actors may instead
  /// override Actor::OutputTokenType to derive it from their input types.
  /// Default Unknown = undeclared (the pass infers what it can).
  void set_schema(TokenType type) { schema_ = std::move(type); }
  const TokenType& schema() const { return schema_; }

  /// \brief Register the receiving end of one outgoing channel.
  void AddRemoteReceiver(Receiver* receiver) {
    remote_receivers_.push_back(receiver);
  }

  const std::vector<Receiver*>& remote_receivers() const {
    return remote_receivers_;
  }

  /// \brief Deliver one event to every connected remote receiver.
  Status Broadcast(const CWEvent& event);

  /// \brief Drop all registered receivers (re-initialization).
  void ClearRemoteReceivers() { remote_receivers_.clear(); }

 private:
  TokenType schema_;
  std::vector<Receiver*> remote_receivers_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_PORT_H_

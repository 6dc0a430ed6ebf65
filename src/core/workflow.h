// The workflow graph: actors plus the channels connecting their ports.
//
// A workflow is a *specification*; which model of computation executes it is
// decided by attaching a director (core/director.h). The same graph can run
// under the thread-based PNCWF director, the scheduled SCWF director, or as
// a sub-workflow under SDF/DDF — receivers are created per-director at
// initialization time.

#ifndef CONFLUENCE_CORE_WORKFLOW_H_
#define CONFLUENCE_CORE_WORKFLOW_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/actor.h"

namespace cwf {

/// \brief One channel: an output port wired to a specific channel slot of an
/// input port.
struct ChannelSpec {
  OutputPort* from = nullptr;
  InputPort* to = nullptr;
  size_t to_channel = 0;
};

/// \brief A composition of actors and channels.
class Workflow {
 public:
  explicit Workflow(std::string name) : name_(std::move(name)) {}

  Workflow(const Workflow&) = delete;
  Workflow& operator=(const Workflow&) = delete;

  const std::string& name() const { return name_; }

  /// \brief Construct an actor in place and take ownership.
  template <typename T, typename... Args>
  T* AddActor(Args&&... args) {
    auto actor = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = actor.get();
    AdoptActor(std::move(actor));
    return raw;
  }

  /// \brief Take ownership of a pre-built actor and give it the next slot
  /// (Actor::slot(): its index in actors()).
  Actor* AdoptActor(std::unique_ptr<Actor> actor);

  /// \brief Wire `from` to the next free channel slot of `to`.
  Status Connect(OutputPort* from, InputPort* to);

  /// \brief Wire `from` into an explicit channel slot of `to`. Like the
  /// Ptolemy composition API this does not reject duplicate wirings
  /// eagerly — construct freely, then Validate() (or the analyzer) flags
  /// a slot wired twice as CWF1004.
  Status Connect(OutputPort* from, InputPort* to, size_t to_channel);

  /// \brief Convenience overload: look ports up by actor/port name.
  Status Connect(const std::string& from_actor, const std::string& from_port,
                 const std::string& to_actor, const std::string& to_port);

  /// \brief Actor by name, or nullptr.
  Actor* FindActor(const std::string& name) const;

  const std::vector<std::unique_ptr<Actor>>& actors() const { return actors_; }
  const std::vector<ChannelSpec>& channels() const { return channels_; }

  /// \brief Actors with no connected inputs (external data injectors).
  std::vector<Actor*> Sources() const;

  /// \brief Actors with no connected outputs.
  std::vector<Actor*> Sinks() const;

  /// \brief Actors directly downstream of `actor` (via any channel),
  /// deduplicated.
  std::vector<Actor*> DownstreamOf(const Actor* actor) const;

  /// \brief Actors directly upstream of `actor`, deduplicated.
  std::vector<Actor*> UpstreamOf(const Actor* actor) const;

  /// \brief Whether the channel graph contains a directed cycle.
  bool HasCycle() const;

  /// \brief Structural checks — a thin wrapper over the analyzer's
  /// structural pass (analysis/structural_pass.h): unique actor names,
  /// valid window specs, no self-loop channels, no channel slot wired
  /// twice. The first error-severity finding maps to InvalidArgument;
  /// warnings (dead subgraphs, missing sources/sinks) never fail it.
  Status Validate() const;

  /// \brief Rendering knobs for ToDot().
  struct DotOptions {
    /// Fill color per actor ("red", "#ffcccc", ...); actors absent from
    /// the map render unfilled. Composite actors tint their cluster.
    std::map<const Actor*, std::string> node_fill;

    /// Extra styling for one channel (schema layouts, mismatch highlights).
    struct EdgeStyle {
      std::string label;  ///< extra label line under the window semantics
      std::string color;  ///< edge + font color ("red" for mismatches)
    };
    /// Keyed by (consuming port, channel slot) — the same key that names a
    /// channel uniquely everywhere else in the engine.
    std::map<std::pair<const InputPort*, size_t>, EdgeStyle> edge_style;
  };

  /// \brief Render the graph in Graphviz DOT format (actors as nodes —
  /// composites shown as clusters with their inner workflow — channels as
  /// edges labelled with the consuming port's window semantics). A node is
  /// named by its slot path ("n1"; "n2_0" for slot 0 inside the composite at
  /// slot 2), so identical graphs render byte-identical.
  std::string ToDot() const;
  std::string ToDot(const DotOptions& options) const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<ChannelSpec> channels_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_WORKFLOW_H_

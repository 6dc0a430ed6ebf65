#include "core/workflow.h"

#include "analysis/diagnostic.h"
#include "analysis/structural_pass.h"
#include "core/composite_actor.h"

#include <algorithm>
#include <sstream>
#include <functional>
#include <map>
#include <set>

namespace cwf {

Actor* Workflow::AdoptActor(std::unique_ptr<Actor> actor) {
  CWF_CHECK(actor != nullptr);
  CWF_CHECK_MSG(FindActor(actor->name()) == nullptr,
                "duplicate actor name '" << actor->name() << "' in workflow "
                                         << name_);
  CWF_CHECK_MSG(actor->slot_ == Actor::kNoSlot,
                "actor '" << actor->name() << "' already has a workflow");
  actor->slot_ = actors_.size();
  actors_.push_back(std::move(actor));
  return actors_.back().get();
}

Status Workflow::Connect(OutputPort* from, InputPort* to) {
  if (from == nullptr || to == nullptr) {
    return Status::InvalidArgument("Connect() requires non-null ports");
  }
  if (FindActor(from->actor()->name()) != from->actor() ||
      FindActor(to->actor()->name()) != to->actor()) {
    return Status::InvalidArgument(
        "Connect() ports must belong to actors of this workflow");
  }
  // Count existing channels into `to` to pick the next slot.
  size_t slot = 0;
  for (const ChannelSpec& ch : channels_) {
    if (ch.to == to) {
      slot = std::max(slot, ch.to_channel + 1);
    }
  }
  channels_.push_back({from, to, slot});
  return Status::OK();
}

Status Workflow::Connect(OutputPort* from, InputPort* to, size_t to_channel) {
  if (from == nullptr || to == nullptr) {
    return Status::InvalidArgument("Connect() requires non-null ports");
  }
  if (FindActor(from->actor()->name()) != from->actor() ||
      FindActor(to->actor()->name()) != to->actor()) {
    return Status::InvalidArgument(
        "Connect() ports must belong to actors of this workflow");
  }
  channels_.push_back({from, to, to_channel});
  return Status::OK();
}

Status Workflow::Connect(const std::string& from_actor,
                         const std::string& from_port,
                         const std::string& to_actor,
                         const std::string& to_port) {
  Actor* src = FindActor(from_actor);
  if (src == nullptr) {
    return Status::NotFound("no actor '" + from_actor + "'");
  }
  Actor* dst = FindActor(to_actor);
  if (dst == nullptr) {
    return Status::NotFound("no actor '" + to_actor + "'");
  }
  OutputPort* out = src->GetOutputPort(from_port);
  if (out == nullptr) {
    return Status::NotFound("actor '" + from_actor + "' has no output port '" +
                            from_port + "'");
  }
  InputPort* in = dst->GetInputPort(to_port);
  if (in == nullptr) {
    return Status::NotFound("actor '" + to_actor + "' has no input port '" +
                            to_port + "'");
  }
  return Connect(out, in);
}

Actor* Workflow::FindActor(const std::string& name) const {
  for (const auto& actor : actors_) {
    if (actor->name() == name) {
      return actor.get();
    }
  }
  return nullptr;
}

std::vector<Actor*> Workflow::Sources() const {
  std::vector<Actor*> out;
  for (const auto& actor : actors_) {
    bool has_input = false;
    for (const ChannelSpec& ch : channels_) {
      if (ch.to->actor() == actor.get()) {
        has_input = true;
        break;
      }
    }
    if (!has_input) {
      out.push_back(actor.get());
    }
  }
  return out;
}

std::vector<Actor*> Workflow::Sinks() const {
  std::vector<Actor*> out;
  for (const auto& actor : actors_) {
    bool has_output = false;
    for (const ChannelSpec& ch : channels_) {
      if (ch.from->actor() == actor.get()) {
        has_output = true;
        break;
      }
    }
    if (!has_output) {
      out.push_back(actor.get());
    }
  }
  return out;
}

std::vector<Actor*> Workflow::DownstreamOf(const Actor* actor) const {
  std::vector<Actor*> out;
  for (const ChannelSpec& ch : channels_) {
    if (ch.from->actor() == actor) {
      Actor* next = ch.to->actor();
      if (std::find(out.begin(), out.end(), next) == out.end()) {
        out.push_back(next);
      }
    }
  }
  return out;
}

std::vector<Actor*> Workflow::UpstreamOf(const Actor* actor) const {
  std::vector<Actor*> out;
  for (const ChannelSpec& ch : channels_) {
    if (ch.to->actor() == actor) {
      Actor* prev = ch.from->actor();
      if (std::find(out.begin(), out.end(), prev) == out.end()) {
        out.push_back(prev);
      }
    }
  }
  return out;
}

bool Workflow::HasCycle() const {
  enum class Mark { kUnseen, kInProgress, kDone };
  std::map<const Actor*, Mark> marks;
  std::function<bool(const Actor*)> visit = [&](const Actor* a) -> bool {
    Mark& m = marks[a];
    if (m == Mark::kInProgress) {
      return true;
    }
    if (m == Mark::kDone) {
      return false;
    }
    m = Mark::kInProgress;
    for (Actor* next : DownstreamOf(a)) {
      if (visit(next)) {
        return true;
      }
    }
    m = Mark::kDone;
    return false;
  };
  for (const auto& actor : actors_) {
    if (visit(actor.get())) {
      return true;
    }
  }
  return false;
}

Status Workflow::Validate() const {
  const analysis::StructuralPass pass;
  analysis::DiagnosticBag diags;
  pass.Run(*this, {}, &diags);
  for (const analysis::Diagnostic& d : diags.all()) {
    if (d.severity == analysis::Severity::kError) {
      return Status::InvalidArgument("[" + d.code + "] at " + d.location +
                                     ": " + d.message);
    }
  }
  return Status::OK();
}

namespace {

// The slot path: `prefix` names the enclosing composites (see ToDot()).
std::string DotId(const std::string& prefix, const Actor* actor) {
  return prefix + std::to_string(actor->slot());
}

std::string EscapeDot(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

void EmitActors(std::ostringstream& oss, const Workflow& wf,
                const std::string& prefix,
                const Workflow::DotOptions& options, int depth);

void EmitActorNode(std::ostringstream& oss, const Actor* actor,
                   const std::string& prefix,
                   const Workflow::DotOptions& options, int depth) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const auto fill = options.node_fill.find(actor);
  // Composites render as clusters containing their inner workflow.
  if (const auto* composite = dynamic_cast<const CompositeActor*>(actor)) {
    oss << indent << "subgraph cluster_" << DotId(prefix, actor) << " {\n"
        << indent << "  label=\"" << EscapeDot(actor->name()) << "\";\n";
    if (fill != options.node_fill.end()) {
      oss << indent << "  style=filled;\n"
          << indent << "  bgcolor=\"" << EscapeDot(fill->second) << "\";\n";
    }
    EmitActors(oss, *const_cast<CompositeActor*>(composite)->inner(),
               DotId(prefix, actor) + "_", options, depth + 1);
    oss << indent << "}\n";
    return;
  }
  oss << indent << DotId(prefix, actor) << " [label=\""
      << EscapeDot(actor->name()) << "\"";
  if (actor->IsSource()) {
    oss << ", shape=invhouse";
  }
  if (fill != options.node_fill.end()) {
    oss << ", style=filled, fillcolor=\"" << EscapeDot(fill->second) << "\"";
  }
  oss << "];\n";
}

void EmitActors(std::ostringstream& oss, const Workflow& wf,
                const std::string& prefix,
                const Workflow::DotOptions& options, int depth) {
  for (const auto& actor : wf.actors()) {
    EmitActorNode(oss, actor.get(), prefix, options, depth);
  }
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  for (const ChannelSpec& ch : wf.channels()) {
    oss << indent << DotId(prefix, ch.from->actor()) << " -> "
        << DotId(prefix, ch.to->actor());
    const auto style = options.edge_style.find({ch.to, ch.to_channel});
    std::string label;
    if (!ch.to->spec().IsTrivial()) {
      label = EscapeDot(ch.to->spec().ToString());
    }
    if (style != options.edge_style.end() && !style->second.label.empty()) {
      if (!label.empty()) {
        label += "\\n";
      }
      label += EscapeDot(style->second.label);
    }
    std::string attrs;
    if (!label.empty()) {
      attrs += "label=\"" + label + "\"";
    }
    if (style != options.edge_style.end() && !style->second.color.empty()) {
      if (!attrs.empty()) {
        attrs += ", ";
      }
      attrs += "color=\"" + EscapeDot(style->second.color) + "\", fontcolor=\"" +
               EscapeDot(style->second.color) + "\", penwidth=2";
    }
    if (!attrs.empty()) {
      oss << " [" << attrs << "]";
    }
    oss << ";\n";
  }
}

}  // namespace

std::string Workflow::ToDot() const { return ToDot(DotOptions{}); }

std::string Workflow::ToDot(const DotOptions& options) const {
  std::ostringstream oss;
  oss << "digraph \"" << EscapeDot(name_) << "\" {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box];\n";
  EmitActors(oss, *this, "n", options, 1);
  oss << "}\n";
  return oss.str();
}

}  // namespace cwf

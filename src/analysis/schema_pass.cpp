#include "analysis/schema_pass.h"

#include <map>
#include <sstream>

#include "core/composite_actor.h"
#include "core/workflow.h"
#include "window/window_spec.h"

namespace cwf::analysis {

namespace {

void AppendJsonString(std::ostringstream& oss, const std::string& s) {
  oss << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        oss << "\\\"";
        break;
      case '\\':
        oss << "\\\\";
        break;
      case '\n':
        oss << "\\n";
        break;
      case '\t':
        oss << "\\t";
        break;
      default:
        oss << c;
    }
  }
  oss << '"';
}

using OutTypes = std::map<const OutputPort*, TokenType>;
using BoundaryTypes = std::map<const InputPort*, TokenType>;

/// Join of everything flowing into `port`: the composite-boundary binding
/// (when resolving an inner workflow) plus every in-level channel.
TokenType InputTypeOf(const Workflow& workflow, const InputPort* port,
                      const OutTypes& out_types,
                      const BoundaryTypes& boundary) {
  TokenType t;
  auto bound = boundary.find(port);
  if (bound != boundary.end()) {
    t = t.Join(bound->second);
  }
  for (const ChannelSpec& ch : workflow.channels()) {
    if (ch.to == port) {
      auto it = out_types.find(ch.from);
      if (it != out_types.end()) {
        t = t.Join(it->second);
      }
    }
  }
  return t;
}

std::vector<TokenType> GatherInputs(const Workflow& workflow,
                                    const Actor* actor,
                                    const OutTypes& out_types,
                                    const BoundaryTypes& boundary) {
  std::vector<TokenType> inputs;
  inputs.reserve(actor->input_ports().size());
  for (const auto& port : actor->input_ports()) {
    inputs.push_back(InputTypeOf(workflow, port.get(), out_types, boundary));
  }
  return inputs;
}

void ResolveLevel(const Workflow& workflow, const BoundaryTypes& boundary,
                  OutTypes* out_types);

void ResolveActor(const Workflow& workflow, const Actor* actor,
                  const BoundaryTypes& boundary, OutTypes* out_types,
                  bool* changed) {
  const std::vector<TokenType> inputs =
      GatherInputs(workflow, actor, *out_types, boundary);
  const auto* composite = dynamic_cast<const CompositeActor*>(actor);
  OutTypes inner_out;
  if (composite != nullptr) {
    // Bind the outer types to the exposed inner ports and resolve the inner
    // workflow with them — this is how a type declared outside a composite
    // reaches a consumer inside it, and vice versa.
    BoundaryTypes inner_boundary;
    for (size_t i = 0; i < actor->input_ports().size(); ++i) {
      InputPort* inner =
          composite->BoundInnerInput(actor->input_ports()[i].get());
      if (inner != nullptr) {
        TokenType& slot = inner_boundary[inner];
        slot = slot.Join(inputs[i]);
      }
    }
    ResolveLevel(*composite->inner(), inner_boundary, &inner_out);
  }
  for (const auto& port : actor->output_ports()) {
    TokenType t;
    if (composite != nullptr) {
      t = port->schema();  // an explicit boundary declaration wins
      if (t.is_unknown()) {
        OutputPort* inner = composite->BoundInnerOutput(port.get());
        auto it = inner_out.find(inner);
        if (inner != nullptr && it != inner_out.end()) {
          t = it->second;
        }
      }
    } else {
      t = actor->OutputTokenType(port.get(), inputs);
    }
    TokenType& slot = (*out_types)[port.get()];
    if (slot != t) {
      slot = t;
      *changed = true;
    }
  }
}

void ResolveLevel(const Workflow& workflow, const BoundaryTypes& boundary,
                  OutTypes* out_types) {
  // Forward propagation to a fixpoint. Rounds are bounded so a cycle (or a
  // non-monotone custom transfer function) cannot spin: each round
  // recomputes every output from scratch, and acyclic graphs settle within
  // one round per topological layer.
  const size_t max_rounds = workflow.actors().size() + 2;
  for (size_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (const auto& actor : workflow.actors()) {
      ResolveActor(workflow, actor.get(), boundary, out_types, &changed);
    }
    if (!changed) {
      break;
    }
  }
}

std::string ChannelDisplayName(const ChannelSpec& ch) {
  std::ostringstream oss;
  oss << ch.from->FullName() << " -> " << ch.to->FullName() << "["
      << ch.to_channel << "]";
  return oss.str();
}

std::string ChannelLocation(const AnalysisOptions& options,
                            const ChannelSpec& ch) {
  std::ostringstream oss;
  oss << ActorLocation(options, ch.to->actor()->name()) << "." << ch.to->name()
      << "[" << ch.to_channel << "]";
  return oss.str();
}

void AddFinding(SchemaReport* report, ChannelSchema* row, std::string code,
                Severity severity, std::string location, std::string message) {
  if (severity == Severity::kError) {
    row->mismatched = true;
  }
  report->findings.push_back(SchemaFinding{
      std::move(code), severity, std::move(location), std::move(message),
      row->to_port->actor()});
}

/// Producer/consumer compatibility of one channel, one distinct code per
/// failure shape.
void CheckChannel(const AnalysisOptions& options, const ChannelSpec& ch,
                  SchemaReport* report, ChannelSchema* row) {
  const TokenType& have = row->resolved;
  const TokenType& need = row->required;
  const std::string loc = ChannelLocation(options, ch);
  const std::string name = ChannelDisplayName(ch);

  if (have.is_unknown()) {
    if (!need.is_unknown()) {
      AddFinding(report, row, "CWF7006", Severity::kWarning, loc,
                 "producer type of channel '" + name +
                     "' is undeclared but the port requires " +
                     need.ToString() +
                     "; declare OutputPort::set_schema (or a transfer "
                     "function) upstream so the channel can be checked");
    }
    return;
  }

  if (!need.is_unknown()) {
    if (have.allows_nil() && !need.allows_nil()) {
      AddFinding(report, row, "CWF7005", Severity::kError, loc,
                 "channel '" + name +
                     "' may carry nil (control) tokens but the port requires " +
                     need.ToString());
    }
    if (have.allows_record() && !need.allows_record()) {
      AddFinding(report, row, "CWF7004", Severity::kError, loc,
                 "channel '" + name + "' carries records " +
                     (have.record_schema() != nullptr
                          ? have.record_schema()->ToString()
                          : std::string("(unconstrained layout)")) +
                     " but the port requires scalar " + need.ToString());
    }
    const ScalarType have_scalars = have.scalars();
    const ScalarType need_scalars = need.scalars();
    if (!have_scalars.empty()) {
      if (need_scalars.empty() && need.allows_record()) {
        AddFinding(report, row, "CWF7004", Severity::kError, loc,
                   "channel '" + name + "' carries scalar " +
                       have_scalars.ToString() +
                       " tokens but the port requires " + need.ToString());
      } else if (!have_scalars.IsSubtypeOf(need_scalars)) {
        AddFinding(report, row, "CWF7001", Severity::kError, loc,
                   "channel '" + name + "' carries " +
                       have_scalars.ToString() + " tokens but the port accepts " +
                       (need_scalars.empty() ? need.ToString()
                                             : need_scalars.ToString()));
      }
    }
    if (have.allows_record() && need.allows_record() &&
        need.record_schema() != nullptr) {
      if (have.record_schema() == nullptr) {
        AddFinding(report, row, "CWF7006", Severity::kWarning, loc,
                   "channel '" + name +
                       "' carries records of undeclared layout but the port "
                       "requires " +
                       need.record_schema()->ToString());
      } else {
        const RecordSchema& have_rec = *have.record_schema();
        for (const FieldSpec& spec : need.record_schema()->fields()) {
          const FieldSpec* got = have_rec.Find(spec.name);
          if (got == nullptr) {
            if (!spec.required) {
              continue;
            }
            AddFinding(report, row, "CWF7003", Severity::kError, loc,
                       "channel '" + name + "': required field '" + spec.name +
                           "' is missing from the resolved layout " +
                           have_rec.ToString());
          } else if (!got->type.Intersects(spec.type)) {
            AddFinding(report, row, "CWF7002", Severity::kError, loc,
                       "channel '" + name + "': field '" + spec.name +
                           "' has type " + got->type.ToString() +
                           " but the port requires " + spec.type.ToString());
          } else if (!got->type.IsSubtypeOf(spec.type)) {
            AddFinding(report, row, "CWF7002", Severity::kWarning, loc,
                       "channel '" + name + "': field '" + spec.name +
                           "' has type " + got->type.ToString() +
                           " which only partially satisfies the required " +
                           spec.type.ToString());
          } else if (spec.required && !got->required) {
            AddFinding(report, row, "CWF7003", Severity::kWarning, loc,
                       "channel '" + name + "': field '" + spec.name +
                           "' is optional in the resolved layout " +
                           have_rec.ToString() +
                           " but the port requires it on every record");
          }
        }
      }
    }
  }

  // Implicit requirement: the consuming port's window group-by fields must
  // exist in whatever records flow in, or window formation dies on a
  // stringly field lookup at runtime.
  const std::vector<std::string>& group_by = ch.to->spec().group_by;
  if (!group_by.empty()) {
    if (!have.allows_record()) {
      AddFinding(report, row, "CWF7007", Severity::kWarning, loc,
                 "port groups by {" + group_by.front() +
                     ", ...} but channel '" + name + "' carries " +
                     have.ToString() + ", not records");
    } else if (have.record_schema() != nullptr) {
      for (const std::string& field : group_by) {
        if (have.record_schema()->Find(field) == nullptr) {
          AddFinding(report, row, "CWF7007", Severity::kWarning, loc,
                     "group-by field '" + field +
                         "' is absent from the resolved layout " +
                         have.record_schema()->ToString() + " of channel '" +
                         name + "'");
        }
      }
    }
  }
}

}  // namespace

SchemaReport AnalyzeSchemas(const Workflow& workflow,
                            const AnalysisOptions& options) {
  SchemaReport report;
  report.workflow = workflow.name();

  OutTypes out_types;
  ResolveLevel(workflow, BoundaryTypes{}, &out_types);

  for (const ChannelSpec& ch : workflow.channels()) {
    ChannelSchema row;
    row.from = ch.from->FullName();
    row.to = ch.to->FullName() + "[" + std::to_string(ch.to_channel) + "]";
    row.to_port = ch.to;
    row.to_channel = ch.to_channel;
    auto it = out_types.find(ch.from);
    row.resolved = it != out_types.end() ? it->second : TokenType::Unknown();
    row.required = ch.to->required_schema();
    row.declared = !ch.from->schema().is_unknown();
    CheckChannel(options, ch, &report, &row);
    report.channels.push_back(std::move(row));
  }
  return report;
}

void ReportSchemas(const SchemaReport& report, const AnalysisOptions& options,
                   DiagnosticBag* diagnostics) {
  (void)options;  // findings are pre-located during analysis
  for (const SchemaFinding& finding : report.findings) {
    switch (finding.severity) {
      case Severity::kError:
        diagnostics->Error(finding.code, finding.location, finding.message,
                           finding.actor);
        break;
      case Severity::kWarning:
        diagnostics->Warning(finding.code, finding.location, finding.message,
                             finding.actor);
        break;
      case Severity::kNote:
        diagnostics->Note(finding.code, finding.location, finding.message,
                          finding.actor);
        break;
    }
  }
}

void SchemaPass::Run(const Workflow& workflow, const AnalysisOptions& options,
                     DiagnosticBag* diagnostics) const {
  if (workflow.channels().empty()) {
    return;
  }
  const SchemaReport report = AnalyzeSchemas(workflow, options);
  ReportSchemas(report, options, diagnostics);
}

size_t SchemaReport::ErrorCount() const {
  size_t count = 0;
  for (const SchemaFinding& f : findings) {
    if (f.severity == Severity::kError) {
      ++count;
    }
  }
  return count;
}

std::string SchemaReport::ToText() const {
  std::ostringstream oss;
  oss << "schemas of '" << workflow << "': " << channels.size() << " channel"
      << (channels.size() == 1 ? "" : "s") << "\n";
  for (const ChannelSchema& ch : channels) {
    oss << "  " << ch.from << " -> " << ch.to << ": " << ch.resolved.ToString()
        << " (" << (ch.declared ? "declared"
                                : ch.resolved.is_unknown() ? "unknown"
                                                           : "inferred")
        << ")";
    if (!ch.required.is_unknown()) {
      oss << " requires " << ch.required.ToString();
    }
    if (ch.mismatched) {
      oss << "  MISMATCH";
    }
    oss << "\n";
  }
  for (const SchemaFinding& f : findings) {
    oss << "  " << SeverityName(f.severity) << " " << f.code << " at "
        << f.location << ": " << f.message << "\n";
  }
  return oss.str();
}

std::string SchemaReport::ToJson() const {
  std::ostringstream oss;
  oss << "{\"workflow\":";
  AppendJsonString(oss, workflow);
  oss << ",\"channels\":[";
  for (size_t i = 0; i < channels.size(); ++i) {
    if (i > 0) {
      oss << ",";
    }
    const ChannelSchema& ch = channels[i];
    oss << "{\"from\":";
    AppendJsonString(oss, ch.from);
    oss << ",\"to\":";
    AppendJsonString(oss, ch.to);
    oss << ",\"type\":";
    AppendJsonString(oss, ch.resolved.ToString());
    oss << ",\"required\":";
    AppendJsonString(oss, ch.required.ToString());
    oss << ",\"declared\":" << (ch.declared ? "true" : "false");
    oss << ",\"mismatched\":" << (ch.mismatched ? "true" : "false") << "}";
  }
  oss << "],\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) {
      oss << ",";
    }
    const SchemaFinding& f = findings[i];
    oss << "{\"code\":";
    AppendJsonString(oss, f.code);
    oss << ",\"severity\":";
    AppendJsonString(oss, SeverityName(f.severity));
    oss << ",\"location\":";
    AppendJsonString(oss, f.location);
    oss << ",\"message\":";
    AppendJsonString(oss, f.message);
    oss << "}";
  }
  oss << "]}";
  return oss.str();
}

}  // namespace cwf::analysis

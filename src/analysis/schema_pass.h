// Schema/type-flow analysis: does every channel carry what its consumer
// expects?
//
// The data plane is dynamically typed — every Token is a runtime variant,
// every record field access a stringly-typed lookup — so wiring a record
// producer into a port that reads AsInt(), or dropping a field a downstream
// aggregation groups by, only surfaces as a CHECK-fail deep inside the
// consuming actor, mid-wave. This pass closes that gap statically:
//
//   - actors declare per-port types (OutputPort::set_schema,
//     InputPort::set_required_schema) or act as transfer functions
//     (Actor::OutputTokenType derives output types from resolved inputs —
//     identity forwards, projections, joins);
//   - AnalyzeSchemas propagates types forward to a fixpoint across the
//     channels of one workflow level, resolving composite-actor outputs by
//     recursively resolving their inner workflow with the outer boundary
//     types bound to the exposed inner ports, and *infers* the types of
//     undeclared intermediate channels;
//   - every channel's resolved producer type is checked against the
//     consumer's requirement — declared (required_schema) and implicit
//     (WindowSpec group-by fields) — yielding stable CWF70xx diagnostics:
//
//       CWF7001  error    token-kind mismatch (e.g. string into int port)
//       CWF7002  error    record field type mismatch (warning when the
//                         types merely overlap instead of being disjoint)
//       CWF7003  error    required record field missing
//       CWF7004  error    record-vs-scalar shape mismatch
//       CWF7005  error    nil (control) token into a data-requiring port
//       CWF7006  warning  undeclared producer into a strict consumer
//       CWF7007  warning  group-by field absent from the resolved layout
//       CWF7008  error    runtime schema violation (emitted by the
//                         CWF_SCHEMA_CHECK deposit validation, not here)
//
// The analysis→runtime edge runs both directions: the Director::Initialize
// gate (VerifyForDirector, analysis/analyzer.h) resolves each level's
// schemas once with AnalyzeSchemas and refuses mistyped graphs; and
// Initialize attaches each channel's type from that same report to its
// receiver (the resolved producer type, else the consumer's requirement)
// so the debug-build deposit check in OutputPort::Broadcast turns a lying
// producer into an attributed CWF7008 error naming the channel and field.

#ifndef CONFLUENCE_ANALYSIS_SCHEMA_PASS_H_
#define CONFLUENCE_ANALYSIS_SCHEMA_PASS_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/pass.h"
#include "core/schema.h"

namespace cwf {

class InputPort;
class Workflow;

namespace analysis {

/// \brief One channel of the analyzed level with its resolved types.
struct ChannelSchema {
  std::string from;  ///< "A.out"
  std::string to;    ///< "B.in[0]"
  const InputPort* to_port = nullptr;
  size_t to_channel = 0;

  /// Resolved producer-side type (declared, transferred or inferred);
  /// Unknown when nothing upstream declares anything.
  TokenType resolved;
  /// Consumer requirement (InputPort::set_required_schema); Unknown = none.
  TokenType required;
  /// Whether `resolved` came straight from a declaration on the producing
  /// port (false: inferred through transfer functions, or unknown).
  bool declared = false;
  /// Whether any error-severity finding attaches to this channel (drives
  /// the red edge in --dot).
  bool mismatched = false;
};

/// \brief One CWF70xx finding, pre-located for the DiagnosticBag.
struct SchemaFinding {
  std::string code;
  Severity severity = Severity::kError;
  std::string location;
  std::string message;
  const Actor* actor = nullptr;
};

/// \brief Resolution + findings for one workflow level.
struct SchemaReport {
  std::string workflow;
  std::vector<ChannelSchema> channels;
  std::vector<SchemaFinding> findings;

  size_t ErrorCount() const;

  std::string ToText() const;
  std::string ToJson() const;
};

/// \brief Propagate types across one workflow level and check every
/// channel. Composite actors on this level are resolved through their
/// boundary (their inner channels are *checked* when the Analyzer recurses
/// into them with its own location prefix).
SchemaReport AnalyzeSchemas(const Workflow& workflow,
                            const AnalysisOptions& options);

/// \brief Fold a report's findings into `diagnostics`.
void ReportSchemas(const SchemaReport& report, const AnalysisOptions& options,
                   DiagnosticBag* diagnostics);

/// \brief Analyzer pass wrapper (registered by the Analyzer constructor;
/// the Initialize gate calls AnalyzeSchemas directly to keep the report).
class SchemaPass : public AnalysisPass {
 public:
  const char* name() const override { return "schema"; }
  void Run(const Workflow& workflow, const AnalysisOptions& options,
           DiagnosticBag* diagnostics) const override;
};

}  // namespace analysis
}  // namespace cwf

#endif  // CONFLUENCE_ANALYSIS_SCHEMA_PASS_H_

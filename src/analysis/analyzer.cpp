#include "analysis/analyzer.h"

#include <algorithm>
#include <utility>

#include "analysis/boundedness_pass.h"
#include "analysis/liveness_pass.h"
#include "analysis/moc_admission_pass.h"
#include "analysis/rate_pass.h"
#include "analysis/scheduler_config_pass.h"
#include "analysis/schema_pass.h"
#include "analysis/structural_pass.h"
#include "analysis/window_pass.h"
#include "core/composite_actor.h"
#include "core/workflow.h"

namespace cwf::analysis {

std::string ActorLocation(const AnalysisOptions& options,
                          const std::string& actor_name) {
  if (options.location_prefix.empty()) {
    return actor_name;
  }
  return options.location_prefix + "/" + actor_name;
}

Analyzer::Analyzer() {
  passes_.push_back(std::make_unique<StructuralPass>());
  passes_.push_back(std::make_unique<MocAdmissionPass>());
  passes_.push_back(std::make_unique<WindowPass>());
  passes_.push_back(std::make_unique<SchedulerConfigPass>());
  passes_.push_back(std::make_unique<RatePass>());
  passes_.push_back(std::make_unique<BoundednessPass>());
  passes_.push_back(std::make_unique<LivenessPass>());
  passes_.push_back(std::make_unique<SchemaPass>());
}

void Analyzer::AddPass(std::unique_ptr<AnalysisPass> pass) {
  passes_.push_back(std::move(pass));
}

void Analyzer::AnalyzeLevel(const Workflow& wf, const AnalysisOptions& options,
                            const std::vector<std::string>& outer_names,
                            DiagnosticBag* diags) const {
  for (const auto& pass : passes_) {
    pass->Run(wf, options, diags);
  }

  if (!options.recurse_composites) {
    return;
  }

  // Names visible to inner levels: everything in scope so far plus this
  // level's actors. Shadowing is legal (levels are separate namespaces)
  // but makes priority maps and diagnostics ambiguous — hence CWF1001 as
  // a warning across levels.
  std::vector<std::string> scope = outer_names;
  for (const auto& actor : wf.actors()) {
    scope.push_back(actor->name());
  }

  for (const auto& actor : wf.actors()) {
    const auto* composite = dynamic_cast<const CompositeActor*>(actor.get());
    if (composite == nullptr) {
      continue;
    }
    AnalysisOptions inner = options;
    inner.target_director = composite->inner_director()->kind();
    inner.scheduler.reset();  // scheduler deployment applies to the top only
    inner.location_prefix =
        ActorLocation(options, actor->name());

    for (const auto& inner_actor : composite->inner()->actors()) {
      if (std::find(outer_names.begin(), outer_names.end(),
                    inner_actor->name()) != outer_names.end() ||
          std::any_of(wf.actors().begin(), wf.actors().end(),
                      [&](const auto& outer) {
                        return outer->name() == inner_actor->name();
                      })) {
        diags->Warning(
            "CWF1001",
            ActorLocation(inner, inner_actor->name()),
            "inner actor '" + inner_actor->name() +
                "' shadows an actor of the same name at an outer level; "
                "priority maps and diagnostics become ambiguous",
            inner_actor.get());
      }
    }

    AnalyzeLevel(*composite->inner(), inner, scope, diags);
  }
}

DiagnosticBag Analyzer::Analyze(const Workflow& wf,
                                const AnalysisOptions& options) const {
  AnalysisOptions effective = options;
  if (effective.location_prefix.empty()) {
    effective.location_prefix = wf.name();
  }
  DiagnosticBag diags;
  AnalyzeLevel(wf, effective, {}, &diags);
  return diags;
}

std::vector<DirectorAdmission> ComputeAdmissionMatrix(const Workflow& wf) {
  static const char* kKinds[] = {"PNCWF", "SCWF", "SDF", "DDF"};
  const Analyzer analyzer;
  std::vector<DirectorAdmission> matrix;
  for (const char* kind : kKinds) {
    AnalysisOptions options;
    options.target_director = kind;
    const DiagnosticBag diags = analyzer.Analyze(wf, options);
    DirectorAdmission entry;
    entry.director = kind;
    entry.admissible = !diags.HasErrors();
    if (!entry.admissible) {
      for (const Diagnostic& d : diags.all()) {
        if (d.severity == Severity::kError) {
          entry.reason = d.code + " at " + d.location + ": " + d.message;
          break;
        }
      }
    }
    matrix.push_back(std::move(entry));
  }
  return matrix;
}

Status VerifyForDirector(const Workflow& wf, const std::string& director_kind,
                         SchemaReport* schemas) {
  AnalysisOptions options;
  options.target_director = director_kind;
  options.location_prefix = wf.name();
  DiagnosticBag diags;
  StructuralPass().Run(wf, options, &diags);
  MocAdmissionPass().Run(wf, options, &diags);
  SchemaReport report = AnalyzeSchemas(wf, options);
  ReportSchemas(report, options, &diags);
  for (const Diagnostic& d : diags.all()) {
    if (d.severity == Severity::kError) {
      return Status::InvalidArgument("static analysis rejected workflow: [" +
                                     d.code + "] at " + d.location + ": " +
                                     d.message);
    }
  }
  if (schemas != nullptr) {
    *schemas = std::move(report);
  }
  return Status::OK();
}

}  // namespace cwf::analysis

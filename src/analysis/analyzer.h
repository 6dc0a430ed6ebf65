// The static workflow analyzer: drives the eight built-in passes (plus any
// added via AddPass) over a workflow and its composite inner workflows,
// producing one DiagnosticBag per run. cwf_analyze runs it.
//
// Director::Initialize gates on VerifyForDirector instead: only the checks
// that can refuse a deployment (structural, MoC admission, schema), once,
// over the director's own level. Each inner level is gated by its own
// director when the composite initializes. The window, rate, boundedness
// and synthesized-plan liveness passes run only under cwf_analyze.

#ifndef CONFLUENCE_ANALYSIS_ANALYZER_H_
#define CONFLUENCE_ANALYSIS_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/pass.h"
#include "common/status.h"

namespace cwf::analysis {

struct SchemaReport;

class Analyzer {
 public:
  /// \brief Constructs with the eight built-in passes registered.
  Analyzer();

  /// \brief Append a custom pass; it runs after the built-ins at every
  /// hierarchy level.
  void AddPass(std::unique_ptr<AnalysisPass> pass);

  const std::vector<std::unique_ptr<AnalysisPass>>& passes() const {
    return passes_;
  }

  /// \brief Run every pass over `workflow`, recursing into composite inner
  /// workflows (with the inner director's kind as target) unless
  /// options.recurse_composites is false.
  DiagnosticBag Analyze(const Workflow& workflow,
                        const AnalysisOptions& options = {}) const;

 private:
  void AnalyzeLevel(const Workflow& workflow, const AnalysisOptions& options,
                    const std::vector<std::string>& outer_names,
                    DiagnosticBag* diagnostics) const;

  std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

/// \brief Admissibility of one director kind for a workflow.
struct DirectorAdmission {
  std::string director;  ///< "PNCWF", "SCWF", "SDF", "DDF".
  bool admissible = false;
  std::string reason;  ///< First blocking finding when inadmissible.
};

/// \brief Which of the four director kinds can legally run `workflow`
/// (structural errors block all four; MoC errors block per kind).
std::vector<DirectorAdmission> ComputeAdmissionMatrix(
    const Workflow& workflow);

/// \brief The Director::Initialize gate for one workflow level: the
/// structural, MoC-admission (for `director_kind`) and schema checks, with
/// the first error-severity finding mapped to InvalidArgument. Warnings and
/// notes never block; composite inner levels are not visited. On success,
/// `schemas` (when non-null) receives the level's schema resolution, from
/// which Initialize takes each receiver's expected type.
Status VerifyForDirector(const Workflow& workflow,
                         const std::string& director_kind,
                         SchemaReport* schemas = nullptr);

}  // namespace cwf::analysis

#endif  // CONFLUENCE_ANALYSIS_ANALYZER_H_

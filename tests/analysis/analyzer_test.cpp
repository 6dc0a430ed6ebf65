#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "analysis/builtin_graphs.h"
#include "core/composite_actor.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "directors/sdf_director.h"
#include "stafilos/qbs_scheduler.h"
#include "test_actors.h"

namespace cwf::analysis {
namespace {

using analysis_test::Node;

/// outer: src -> comp -> sink, where comp's inner workflow is `inner_fn`'s
/// responsibility to populate (it must leave an actor named "entry" with a
/// free input and "exit" with a free output for the boundary relays).
template <typename InnerFn>
void BuildWithComposite(Workflow* wf, InnerFn inner_fn) {
  auto* src = wf->AddActor<Node>("src", 0, 1);
  auto* comp =
      wf->AddActor<CompositeActor>("comp", std::make_unique<DDFDirector>());
  auto* sink = wf->AddActor<Node>("sink", 1, 0);
  inner_fn(comp->inner());
  auto* entry = dynamic_cast<Node*>(comp->inner()->FindActor("entry"));
  auto* exit_actor = dynamic_cast<Node*>(comp->inner()->FindActor("exit"));
  InputPort* in = comp->ExposeInput("in", entry->in());
  OutputPort* out = comp->ExposeOutput("out", exit_actor->out());
  CWF_CHECK(wf->Connect(src->out(), in).ok());
  CWF_CHECK(wf->Connect(out, sink->in()).ok());
}

TEST(AnalyzerTest, RecursesIntoCompositesWithPrefixedLocations) {
  Workflow wf("outer");
  BuildWithComposite(&wf, [](Workflow* inner) {
    auto* entry = inner->AddActor<Node>("entry", 1, 1);
    auto* loop = inner->AddActor<Node>("loop", 1, 1);
    auto* exit_actor = inner->AddActor<Node>("exit", 1, 1);
    CWF_CHECK(inner->Connect(entry->out(), exit_actor->in()).ok());
    CWF_CHECK(inner->Connect(loop->out(), loop->in()).ok());
  });
  const Analyzer analyzer;
  const DiagnosticBag diags = analyzer.Analyze(wf);
  ASSERT_TRUE(diags.HasCode("CWF1003"));
  EXPECT_EQ(diags.WithCode("CWF1003")[0]->location, "outer/comp/loop");

  // Recursion can be turned off: the inner defect disappears.
  AnalysisOptions flat_only;
  flat_only.recurse_composites = false;
  EXPECT_FALSE(analyzer.Analyze(wf, flat_only).HasCode("CWF1003"));
}

TEST(AnalyzerTest, InnerDirectorKindDrivesInnerMocAnalysis) {
  // The inner workflow cycles; the composite's DDF director makes that a
  // CWF2004 error *inside* even though the outer target is SCWF.
  Workflow wf("outer");
  BuildWithComposite(&wf, [](Workflow* inner) {
    auto* entry = inner->AddActor<Node>("entry", 1, 1);
    auto* back = inner->AddActor<Node>("back", 1, 1);
    auto* exit_actor = inner->AddActor<Node>("exit", 2, 1);
    CWF_CHECK(inner->Connect(entry->out(), exit_actor->in(0)).ok());
    CWF_CHECK(inner->Connect(exit_actor->out(), back->in()).ok());
    CWF_CHECK(inner->Connect(back->out(), exit_actor->in(1)).ok());
  });
  AnalysisOptions options;
  options.target_director = "SCWF";  // outer SCWF would not flag cycles
  const DiagnosticBag diags = Analyzer().Analyze(wf, options);
  ASSERT_TRUE(diags.HasCode("CWF2004"));
  EXPECT_EQ(diags.WithCode("CWF2004")[0]->location.rfind("outer/comp/", 0),
            0u);
}

TEST(AnalyzerTest, Cwf1001CrossLevelNameShadowing) {
  Workflow wf("outer");
  BuildWithComposite(&wf, [](Workflow* inner) {
    // "src" shadows the outer source of the same name.
    auto* entry = inner->AddActor<Node>("entry", 1, 1);
    auto* shadow = inner->AddActor<Node>("src", 1, 1);
    auto* exit_actor = inner->AddActor<Node>("exit", 1, 1);
    CWF_CHECK(inner->Connect(entry->out(), shadow->in()).ok());
    CWF_CHECK(inner->Connect(shadow->out(), exit_actor->in()).ok());
  });
  const DiagnosticBag diags = Analyzer().Analyze(wf);
  ASSERT_TRUE(diags.HasCode("CWF1001"));
  const Diagnostic* d = diags.WithCode("CWF1001")[0];
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location, "outer/comp/src");
}

TEST(AnalyzerTest, DistinctInnerNamesDoNotShadow) {
  Workflow wf("outer");
  BuildWithComposite(&wf, [](Workflow* inner) {
    auto* entry = inner->AddActor<Node>("entry", 1, 1);
    auto* exit_actor = inner->AddActor<Node>("exit", 1, 1);
    CWF_CHECK(inner->Connect(entry->out(), exit_actor->in()).ok());
  });
  EXPECT_FALSE(Analyzer().Analyze(wf).HasCode("CWF1001"));
}

TEST(AnalyzerTest, AddPassRunsAtEveryLevel) {
  class CountingPass : public AnalysisPass {
   public:
    explicit CountingPass(int* runs) : runs_(runs) {}
    const char* name() const override { return "counting"; }
    void Run(const Workflow&, const AnalysisOptions&,
             DiagnosticBag*) const override {
      ++*runs_;
    }

   private:
    int* runs_;
  };
  Workflow wf("outer");
  BuildWithComposite(&wf, [](Workflow* inner) {
    auto* entry = inner->AddActor<Node>("entry", 1, 1);
    auto* exit_actor = inner->AddActor<Node>("exit", 1, 1);
    CWF_CHECK(inner->Connect(entry->out(), exit_actor->in()).ok());
  });
  int runs = 0;
  Analyzer analyzer;
  analyzer.AddPass(std::make_unique<CountingPass>(&runs));
  analyzer.Analyze(wf);
  EXPECT_EQ(runs, 2);  // outer level + one composite level
}

TEST(AnalyzerTest, BuiltinGraphCatalogAnalyzesClean) {
  // The shipped example mirrors and both LRB builds must stay lint-clean:
  // this is what `cwf_analyze --strict` gates on in check.sh.
  const Analyzer analyzer;
  for (const BuiltinGraph& graph : BuildBuiltinGraphs()) {
    AnalysisOptions options;
    options.target_director = graph.director;
    options.scheduler = graph.scheduler;
    const DiagnosticBag diags = analyzer.Analyze(*graph.workflow, options);
    EXPECT_EQ(diags.ErrorCount(), 0u) << graph.name << ":\n" << diags.ToText();
    EXPECT_EQ(diags.WarningCount(), 0u)
        << graph.name << ":\n" << diags.ToText();
  }
}

TEST(AdmissionMatrixTest, TimeWindowGraphExcludesOnlySdf) {
  Workflow wf("w");
  auto* src = wf.AddActor<Node>("src", 0, 1);
  auto* agg = wf.AddActor<Node>("agg", 1, 0,
                                WindowSpec::Time(Seconds(60), Seconds(60)));
  ASSERT_TRUE(wf.Connect(src->out(), agg->in()).ok());
  const auto matrix = ComputeAdmissionMatrix(wf);
  ASSERT_EQ(matrix.size(), 4u);
  for (const DirectorAdmission& entry : matrix) {
    if (entry.director == "SDF") {
      EXPECT_FALSE(entry.admissible);
      EXPECT_NE(entry.reason.find("CWF2001"), std::string::npos);
    } else {
      EXPECT_TRUE(entry.admissible) << entry.director << ": " << entry.reason;
    }
  }
}

TEST(VerifyForDirectorTest, GatesInitializeAndHonorsOptOut) {
  Workflow wf("cyc");
  auto* a = wf.AddActor<Node>("a", 1, 1);
  auto* b = wf.AddActor<Node>("b", 1, 1);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(b->out(), a->in()).ok());

  const Status verdict = VerifyForDirector(wf, "DDF");
  EXPECT_EQ(verdict.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verdict.message().find("CWF2004"), std::string::npos);

  VirtualClock clock;
  {
    DDFDirector gated;
    const Status init = gated.Initialize(&wf, &clock, nullptr);
    EXPECT_EQ(init.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(init.message().find("static analysis rejected"),
              std::string::npos);
  }
  {
    // Opt-out drops back to plain Validate(), which tolerates the ring
    // (deliberately inadmissible graphs are used by deadlock experiments).
    DDFDirector unguarded;
    unguarded.set_static_analysis_enabled(false);
    EXPECT_TRUE(unguarded.Initialize(&wf, &clock, nullptr).ok());
  }
}

/// outer (SCWF): src -> comp -> sink, comp run by `inner_director` over
/// entry -> exit.
struct CompositeDeployment {
  Workflow wf{"outer"};
  Node* entry = nullptr;
  Node* exit_actor = nullptr;

  explicit CompositeDeployment(
      std::unique_ptr<Director> inner_director,
      WindowSpec exit_spec = WindowSpec::SingleEvent()) {
    auto* src = wf.AddActor<Node>("src", 0, 1);
    auto* comp =
        wf.AddActor<CompositeActor>("comp", std::move(inner_director));
    auto* sink = wf.AddActor<Node>("sink", 1, 0);
    entry = comp->inner()->AddActor<Node>("entry", 1, 1);
    exit_actor = comp->inner()->AddActor<Node>("exit", 1, 1, exit_spec);
    CWF_CHECK(comp->inner()->Connect(entry->out(), exit_actor->in()).ok());
    CWF_CHECK(
        wf.Connect(src->out(), comp->ExposeInput("in", entry->in())).ok());
    CWF_CHECK(
        wf.Connect(comp->ExposeOutput("out", exit_actor->out()), sink->in())
            .ok());
  }
};

TEST(InitializeGateTest, InnerSchemaMismatchRefusesOuterInitialize) {
  CompositeDeployment d(std::make_unique<DDFDirector>());
  d.entry->out()->set_schema(TokenType::Str());
  d.exit_actor->in()->set_required_schema(TokenType::Int());
  // The outer gate visits only its own level...
  EXPECT_TRUE(VerifyForDirector(d.wf, "SCWF").ok());
  // ...and the inner director's gate refuses when the composite
  // initializes.
  VirtualClock clock;
  CostModel costs;
  SCWFDirector outer(std::make_unique<QBSScheduler>());
  const Status status = outer.Initialize(&d.wf, &clock, &costs);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CWF7001"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("exit.in"), std::string::npos)
      << status.message();
}

TEST(InitializeGateTest, InnerSdfInadmissibleWindowRefusesOuterInitialize) {
  CompositeDeployment d(std::make_unique<SDFDirector>(),
                        WindowSpec::Time(Seconds(60), Seconds(60)));
  EXPECT_TRUE(VerifyForDirector(d.wf, "SCWF").ok());
  VirtualClock clock;
  CostModel costs;
  SCWFDirector outer(std::make_unique<QBSScheduler>());
  const Status status = outer.Initialize(&d.wf, &clock, &costs);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CWF2001"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("exit.in"), std::string::npos)
      << status.message();
}

TEST(DotHighlightTest, DiagnosticActorsCanBeFilled) {
  Workflow wf("w");
  auto* loop = wf.AddActor<Node>("loop", 1, 1);
  ASSERT_TRUE(wf.Connect(loop->out(), loop->in()).ok());
  const DiagnosticBag diags = Analyzer().Analyze(wf);
  Workflow::DotOptions options;
  for (const Diagnostic& d : diags.all()) {
    if (d.actor != nullptr && d.severity == Severity::kError) {
      options.node_fill[d.actor] = "red";
    }
  }
  const std::string dot = wf.ToDot(options);
  EXPECT_NE(dot.find("fillcolor=\"red\""), std::string::npos);
  EXPECT_EQ(wf.ToDot().find("fillcolor"), std::string::npos);
}

}  // namespace
}  // namespace cwf::analysis

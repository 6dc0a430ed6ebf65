// The Director::Initialize gate (VerifyForDirector) against the full
// Analyzer: over a set of fixture graphs and every level of the built-in
// graphs, under each of the four director kinds, the gate refuses exactly
// when the Analyzer (without recursion) reports an error-severity
// structural, MoC-admission or schema finding on that level, and its status
// names the first such finding. The Analyzer's other error codes (liveness
// of a synthesized plan, scheduler configuration) are not the gate's.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/builtin_graphs.h"
#include "core/composite_actor.h"
#include "directors/ddf_director.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "directors/sdf_director.h"
#include "stafilos/qbs_scheduler.h"
#include "test_actors.h"

namespace cwf::analysis {
namespace {

using analysis_test::Node;
using analysis_test::RateSource;

const char* const kKinds[] = {"PNCWF", "SCWF", "SDF", "DDF"};

bool IsAdmissionCode(const std::string& code) {
  return code.rfind("CWF1", 0) == 0 || code.rfind("CWF2", 0) == 0 ||
         code.rfind("CWF7", 0) == 0;
}

/// The status the gate must return for `wf` under `kind`, derived from the
/// full Analyzer run over that level alone.
Status ExpectedGateStatus(const Workflow& wf, const std::string& kind) {
  AnalysisOptions options;
  options.target_director = kind;
  options.recurse_composites = false;
  const DiagnosticBag diags = Analyzer().Analyze(wf, options);
  for (const Diagnostic& d : diags.all()) {
    if (d.severity == Severity::kError && IsAdmissionCode(d.code)) {
      return Status::InvalidArgument("static analysis rejected workflow: [" +
                                     d.code + "] at " + d.location + ": " +
                                     d.message);
    }
  }
  return Status::OK();
}

std::unique_ptr<Director> MakeDirector(const std::string& kind) {
  if (kind == "SCWF") {
    return std::make_unique<SCWFDirector>(std::make_unique<QBSScheduler>());
  }
  if (kind == "PNCWF") {
    PNCWFOptions options;
    options.mode = PNCWFMode::kSimulatedThreads;
    return std::make_unique<PNCWFDirector>(options);
  }
  if (kind == "SDF") {
    return std::make_unique<SDFDirector>();
  }
  return std::make_unique<DDFDirector>();
}

RecordSchema TimedSpeed() {
  RecordSchema s;
  s.Int("time").Double("speed");
  return s;
}

/// src -> sink with the given producer type and consumer requirement.
void TypedPair(Workflow* wf, TokenType have, TokenType need) {
  auto* src = wf->AddActor<Node>("src", 0, 1);
  auto* sink = wf->AddActor<Node>("sink", 1, 0);
  src->out()->set_schema(std::move(have));
  sink->in()->set_required_schema(std::move(need));
  CWF_CHECK(wf->Connect(src->out(), sink->in()).ok());
}

struct Fixture {
  std::string name;
  std::function<void(Workflow*)> build;
};

std::vector<Fixture> Fixtures() {
  return {
      {"clean_typed_chain",
       [](Workflow* wf) {
         TypedPair(wf, TokenType::Int(), TokenType::Int());
       }},
      {"cwf1002_invalid_window",
       [](Workflow* wf) {
         auto* src = wf->AddActor<Node>("src", 0, 1);
         auto* bad = wf->AddActor<Node>("bad", 1, 0, WindowSpec::Tuples(0, 1));
         CWF_CHECK(wf->Connect(src->out(), bad->in()).ok());
       }},
      {"cwf1003_self_loop",
       [](Workflow* wf) {
         auto* loop = wf->AddActor<Node>("loop", 1, 1);
         CWF_CHECK(wf->Connect(loop->out(), loop->in()).ok());
       }},
      {"cwf1004_slot_wired_twice",
       [](Workflow* wf) {
         auto* a = wf->AddActor<Node>("a", 0, 1);
         auto* b = wf->AddActor<Node>("b", 0, 1);
         auto* sink = wf->AddActor<Node>("sink", 1, 0);
         CWF_CHECK(wf->Connect(a->out(), sink->in(), 0).ok());
         CWF_CHECK(wf->Connect(b->out(), sink->in(), 0).ok());
       }},
      {"cwf2001_time_window",
       [](Workflow* wf) {
         auto* a = wf->AddActor<Node>("a", 0, 1);
         auto* agg = wf->AddActor<Node>(
             "agg", 1, 0, WindowSpec::Time(Seconds(60), Seconds(60)));
         CWF_CHECK(wf->Connect(a->out(), agg->in()).ok());
       }},
      {"cwf2002_inconsistent_rates",
       [](Workflow* wf) {
         auto* src = wf->AddActor<RateSource>("src", 1);
         auto* a = wf->AddActor<Node>("a", 1, 1);
         auto* b = wf->AddActor<Node>(
             "b", 1, 1, WindowSpec::Tuples(2, 2).DeleteUsedEvents(true));
         auto* sink = wf->AddActor<Node>(
             "sink", 1, 0, WindowSpec::Tuples(1, 1).DeleteUsedEvents(true));
         CWF_CHECK(wf->Connect(src->out(), a->in()).ok());
         CWF_CHECK(wf->Connect(src->out(), b->in()).ok());
         CWF_CHECK(wf->Connect(a->out(), sink->in()).ok());
         CWF_CHECK(wf->Connect(b->out(), sink->in()).ok());
       }},
      {"cwf2003_cwf2004_cycle",
       [](Workflow* wf) {
         auto* src = wf->AddActor<Node>("src", 0, 1);
         auto* a = wf->AddActor<Node>("a", 2, 1);
         auto* b = wf->AddActor<Node>("b", 1, 1);
         CWF_CHECK(wf->Connect(src->out(), a->in(0)).ok());
         CWF_CHECK(wf->Connect(a->out(), b->in()).ok());
         CWF_CHECK(wf->Connect(b->out(), a->in(1)).ok());
       }},
      {"cwf7001_kind_mismatch",
       [](Workflow* wf) {
         TypedPair(wf, TokenType::Str(), TokenType::Int());
       }},
      {"cwf7003_missing_field",
       [](Workflow* wf) {
         RecordSchema have;
         have.Int("time");
         TypedPair(wf, TokenType::Record(have),
                   TokenType::Record(TimedSpeed()));
       }},
      {"cwf7004_record_into_scalar",
       [](Workflow* wf) {
         TypedPair(wf, TokenType::Record(TimedSpeed()), TokenType::Int());
       }},
      {"cwf7005_nil_into_data",
       [](Workflow* wf) {
         TypedPair(wf, TokenType::Int().OrNil(), TokenType::Int());
       }},
      {"warnings_and_notes_only",
       [](Workflow* wf) {
         // CWF1005 (half-wired actor), CWF3005 (step > size), CWF7006
         // (undeclared producer into a strict port): none blocks.
         auto* src = wf->AddActor<Node>("src", 0, 1);
         auto* join = wf->AddActor<Node>("join", 2, 1,
                                         WindowSpec::Tuples(2, 4));
         auto* sink = wf->AddActor<Node>("sink", 1, 0);
         sink->in()->set_required_schema(TokenType::Int());
         CWF_CHECK(wf->Connect(src->out(), join->in(0)).ok());
         CWF_CHECK(wf->Connect(join->out(), sink->in()).ok());
       }},
      {"structural_before_schema",
       [](Workflow* wf) {
         TypedPair(wf, TokenType::Str(), TokenType::Int());
         auto* loop = wf->AddActor<Node>("loop", 1, 1);
         CWF_CHECK(wf->Connect(loop->out(), loop->in()).ok());
       }},
      {"moc_before_schema",
       [](Workflow* wf) {
         auto* src = wf->AddActor<Node>("src", 0, 1);
         auto* agg = wf->AddActor<Node>(
             "agg", 1, 0, WindowSpec::Time(Seconds(60), Seconds(60)));
         src->out()->set_schema(TokenType::Str());
         agg->in()->set_required_schema(TokenType::Int());
         CWF_CHECK(wf->Connect(src->out(), agg->in()).ok());
       }},
      {"inner_defect_is_not_this_level",
       [](Workflow* wf) {
         auto* src = wf->AddActor<Node>("src", 0, 1);
         auto* comp = wf->AddActor<CompositeActor>(
             "comp", std::make_unique<DDFDirector>());
         auto* sink = wf->AddActor<Node>("sink", 1, 0);
         auto* entry = comp->inner()->AddActor<Node>("entry", 1, 1);
         auto* loop = comp->inner()->AddActor<Node>("loop", 1, 1);
         CWF_CHECK(comp->inner()->Connect(loop->out(), loop->in()).ok());
         CWF_CHECK(
             wf->Connect(src->out(), comp->ExposeInput("in", entry->in()))
                 .ok());
         CWF_CHECK(
             wf->Connect(comp->ExposeOutput("out", entry->out()), sink->in())
                 .ok());
       }},
  };
}

TEST(GateDifferentialTest, FixturesUnderEveryDirectorKind) {
  size_t refusals = 0;
  for (const Fixture& fixture : Fixtures()) {
    for (const char* kind : kKinds) {
      SCOPED_TRACE(fixture.name + " under " + kind);
      Workflow wf(fixture.name);
      fixture.build(&wf);
      const Status expected = ExpectedGateStatus(wf, kind);
      const Status gate = VerifyForDirector(wf, kind);
      EXPECT_EQ(gate.code(), expected.code());
      EXPECT_EQ(gate.message(), expected.message());
      refusals += gate.ok() ? 0 : 1;

      // Initialize refuses with the gate's status, and only then. A
      // composite's Initialize gates its inner level as well, so only
      // single-level fixtures are compared here.
      if (fixture.name == "inner_defect_is_not_this_level") {
        continue;
      }
      VirtualClock clock;
      CostModel costs;
      const std::unique_ptr<Director> director = MakeDirector(kind);
      const Status init = director->Initialize(&wf, &clock, &costs);
      if (!expected.ok()) {
        EXPECT_EQ(init.message(), expected.message());
      } else {
        EXPECT_EQ(init.message().find("static analysis rejected"),
                  std::string::npos)
            << init.message();
      }
    }
  }
  // Refusals are a large share of the 60 cases, admissions the rest.
  EXPECT_GT(refusals, 20u);
}

void CollectLevels(const Workflow& wf, std::vector<const Workflow*>* levels) {
  levels->push_back(&wf);
  for (const auto& actor : wf.actors()) {
    if (const auto* composite =
            dynamic_cast<const CompositeActor*>(actor.get())) {
      CollectLevels(*composite->inner(), levels);
    }
  }
}

TEST(GateDifferentialTest, EveryLevelOfTheBuiltinGraphs) {
  size_t levels_checked = 0;
  for (const BuiltinGraph& graph : BuildBuiltinGraphs()) {
    std::vector<const Workflow*> levels;
    CollectLevels(*graph.workflow, &levels);
    for (const Workflow* level : levels) {
      for (const char* kind : kKinds) {
        SCOPED_TRACE(graph.name + ": " + level->name() + " under " + kind);
        const Status expected = ExpectedGateStatus(*level, kind);
        const Status gate = VerifyForDirector(*level, kind);
        EXPECT_EQ(gate.code(), expected.code());
        EXPECT_EQ(gate.message(), expected.message());
      }
      ++levels_checked;
    }
  }
  // Nine graphs; the hierarchical ones contribute their inner levels.
  EXPECT_GT(levels_checked, 9u);
}

}  // namespace
}  // namespace cwf::analysis

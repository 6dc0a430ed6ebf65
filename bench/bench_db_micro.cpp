// Embedded-store micro-benchmarks: the operations the Linear Road workflow
// issues per tuple (keyed upsert, indexed point lookup, the toll query's
// accident-proximity aggregate). Each comes in two forms: the one-shot form
// (build the predicate, prepare, execute, as a tool would) and the prepared
// form the LRB actors use (prepared once, executed with a parameter span).

#include <benchmark/benchmark.h>

#include "lrb/actors.h"

namespace cwf::db {
namespace {

void BM_IndexedPointLookup(benchmark::State& state) {
  auto db = lrb::CreateLRBDatabase().value();
  Table* stats = db->GetTable(lrb::kTableSegmentStats).value();
  for (int64_t s = 0; s < 100; ++s) {
    CWF_CHECK(stats
                  ->Insert({Value(int64_t{0}), Value(int64_t{0}), Value(s),
                            Value(45.0), Value(int64_t{40}), Value(int64_t{1})})
                  .ok());
  }
  int64_t seg = 0;
  for (auto _ : state) {
    auto row = stats->SelectOne(
        And({Eq("xway", Value(int64_t{0})), Eq("dir", Value(int64_t{0})),
             Eq("seg", Value(seg))}));
    benchmark::DoNotOptimize(row);
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPointLookup);

void BM_PreparedPointLookup(benchmark::State& state) {
  auto db = lrb::CreateLRBDatabase().value();
  Table* stats = db->GetTable(lrb::kTableSegmentStats).value();
  for (int64_t s = 0; s < 100; ++s) {
    CWF_CHECK(stats
                  ->Insert({Value(int64_t{0}), Value(int64_t{0}), Value(s),
                            Value(45.0), Value(int64_t{40}), Value(int64_t{1})})
                  .ok());
  }
  const PreparedQuery lookup =
      stats
          ->Prepare(And({Eq("xway", Param(0)), Eq("dir", Param(1)),
                         Eq("seg", Param(2))}))
          .value();
  Row row;
  int64_t seg = 0;
  for (auto _ : state) {
    const Value key[] = {Value(int64_t{0}), Value(int64_t{0}), Value(seg)};
    auto found = stats->SelectOne(lookup, key, &row);
    benchmark::DoNotOptimize(found);
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreparedPointLookup);

void BM_KeyedUpsert(benchmark::State& state) {
  auto db = lrb::CreateLRBDatabase().value();
  Table* stats = db->GetTable(lrb::kTableSegmentStats).value();
  int64_t seg = 0;
  for (auto _ : state) {
    CWF_CHECK(stats
                  ->Upsert({"xway", "dir", "seg"},
                           {Value(int64_t{0}), Value(int64_t{0}), Value(seg),
                            Value(45.0), Value(int64_t{40}), Value(int64_t{1})})
                  .ok());
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyedUpsert);

void BM_PreparedKeyedUpsert(benchmark::State& state) {
  auto db = lrb::CreateLRBDatabase().value();
  Table* stats = db->GetTable(lrb::kTableSegmentStats).value();
  const PreparedUpsert upsert =
      stats->PrepareUpsert({"xway", "dir", "seg"}).value();
  int64_t seg = 0;
  for (auto _ : state) {
    CWF_CHECK(stats
                  ->Upsert(upsert,
                           {Value(int64_t{0}), Value(int64_t{0}), Value(seg),
                            Value(45.0), Value(int64_t{40}), Value(int64_t{1})})
                  .ok());
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreparedKeyedUpsert);

/// accidentInSegment with `rows` accidents on (xway 0, dir 0).
std::shared_ptr<Database> AccidentDatabase(int64_t rows) {
  auto db = lrb::CreateLRBDatabase().value();
  Table* accidents = db->GetTable(lrb::kTableAccidents).value();
  for (int64_t i = 0; i < rows; ++i) {
    CWF_CHECK(accidents
                  ->Insert({Value(int64_t{0}), Value(int64_t{0}),
                            Value(i % 100), Value(i * 10), Value(i),
                            Value(i + 100000), Value(i)})
                  .ok());
  }
  return db;
}

void BM_AccidentProximityQuery(benchmark::State& state) {
  auto db = AccidentDatabase(state.range(0));
  Table* accidents = db->GetTable(lrb::kTableAccidents).value();
  int64_t seg = 0;
  for (auto _ : state) {
    auto hit = lrb::AccidentInScope(accidents, 0, 0, seg, 0);
    benchmark::DoNotOptimize(hit);
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " accident rows");
}
BENCHMARK(BM_AccidentProximityQuery)->Arg(8)->Arg(256);

void BM_PreparedAccidentProximityQuery(benchmark::State& state) {
  auto db = AccidentDatabase(state.range(0));
  lrb::AccidentScope scope;
  CWF_CHECK(scope.Prepare(db->GetTable(lrb::kTableAccidents).value()).ok());
  int64_t seg = 0;
  for (auto _ : state) {
    auto hit = scope.InScope(0, 0, seg, 0);
    benchmark::DoNotOptimize(hit);
    seg = (seg + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " accident rows");
}
BENCHMARK(BM_PreparedAccidentProximityQuery)->Arg(8)->Arg(256);

}  // namespace
}  // namespace cwf::db

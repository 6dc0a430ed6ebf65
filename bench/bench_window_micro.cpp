// Window-operator micro-benchmarks: put() throughput across window kinds
// and group-by fan-out (the paper's discussion flags window-based actors as
// the performance-critical component).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <vector>

#include "core/schema.h"
#include "lrb/types.h"
#include "stream/push_channel.h"
#include "stream/trace.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

CWEvent IntEvent(int64_t v, int64_t ts_us, uint64_t seq) {
  CWEvent e;
  e.token = Token(v);
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

CWEvent KeyedEvent(int64_t key, int64_t ts_us, uint64_t seq) {
  // One layout for the stream, as a producer resolves it at Initialize.
  static const RecordLayoutPtr layout = RecordLayout::Make({"k", "v"});
  CWEvent e;
  e.token = Token(BuildRecord(layout, key, static_cast<int64_t>(seq)));
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

void BM_TupleWindowPut(benchmark::State& state) {
  WindowOperator op(
      WindowSpec::Tuples(state.range(0), 1));
  std::vector<Window> out;
  uint64_t seq = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    CWF_CHECK(op.Put(IntEvent(1, static_cast<int64_t>(seq), seq), &out).ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleWindowPut)->Arg(2)->Arg(4)->Arg(32);

void BM_TimeWindowPut(benchmark::State& state) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    CWF_CHECK(op.Put(IntEvent(1, static_cast<int64_t>(seq) * 1000, seq), &out)
                  .ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeWindowPut);

void BM_GroupByWindowPut(benchmark::State& state) {
  const int64_t keys = state.range(0);
  WindowOperator op(
      WindowSpec::Tuples(4, 1).GroupBy({"k"}).DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    CWF_CHECK(op.Put(KeyedEvent(static_cast<int64_t>(seq) % keys,
                                static_cast<int64_t>(seq), seq),
                     &out)
                  .ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_GroupByWindowPut)->Arg(10)->Arg(1000)->Arg(100000);

// A Linear Road position report (8 fields; the group-by fields car, xway,
// dir, seg sit at positions 1, 3, 5, 6), built as the generator builds it.
CWEvent ReportEvent(int64_t car, int64_t ts_us, uint64_t seq) {
  lrb::PositionReport report;
  report.time = ts_us / 1000000;
  report.car = car;
  report.speed = 55.0;
  report.xway = car % 4;
  report.lane = 1;
  report.dir = car % 2;
  report.seg = car % 100;
  report.pos = car * 7;
  CWEvent e;
  e.token = report.ToToken();
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

WindowSpec LrbShapedSpec() {
  return WindowSpec::Time(Seconds(60), Seconds(60))
      .GroupBy({"car", "xway", "dir", "seg"})
      .DeleteUsedEvents(true);
}

// Heap bytes a fresh operator holds per group after 100k deposits that
// each open a new group (mallinfo2 delta; the events' own records are
// allocated before the first reading, so only the operator's share counts:
// group state, key token, index slot, deadline entry and the buffered
// event).
double BytesPerGroup() {
  constexpr int64_t kGroups = 100000;
  std::vector<CWEvent> events;
  events.reserve(kGroups);
  for (int64_t car = 0; car < kGroups; ++car) {
    events.push_back(ReportEvent(car, 1000, static_cast<uint64_t>(car) + 1));
  }
  std::vector<Window> out;
  const size_t before = mallinfo2().uordblks;
  auto op = std::make_unique<WindowOperator>(LrbShapedSpec());
  for (const CWEvent& e : events) {
    CWF_CHECK(op->Put(e, &out).ok());
  }
  const size_t after = mallinfo2().uordblks;
  CWF_CHECK(op->GroupCount() == static_cast<size_t>(kGroups));
  return static_cast<double>(after - before) / kGroups;
}

void BM_LrbShapedGroupByPut(benchmark::State& state) {
  // Avgsv's deposit: a 60 s tumbling window keyed by four int fields. Put
  // 2j opens group j; put 2j+1 revisits group j-64, so half the puts open
  // a group and the other half find one that is not the last touched. The
  // operator restarts every kBatch puts (untimed) to hold that ratio.
  constexpr size_t kBatch = 32768;
  static const double bytes_per_group = BytesPerGroup();
  std::vector<CWEvent> events;
  events.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const int64_t j = static_cast<int64_t>(i / 2);
    const int64_t car = i % 2 == 0 ? j : std::max<int64_t>(j - 64, 0);
    events.push_back(
        ReportEvent(car, static_cast<int64_t>(i) * 1000, i + 1));
  }
  auto op = std::make_unique<WindowOperator>(LrbShapedSpec());
  std::vector<Window> out;
  size_t next = 0;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      op = std::make_unique<WindowOperator>(LrbShapedSpec());
      next = 0;
      state.ResumeTiming();
    }
    out.clear();
    CWF_CHECK(op->Put(events[next], &out).ok());
    ++next;
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_group"] = bytes_per_group;
}
BENCHMARK(BM_LrbShapedGroupByPut);

void BM_TimeWindowDeadlineIndex(benchmark::State& state) {
  // NextDeadline() must stay O(1) regardless of group count.
  const int64_t keys = state.range(0);
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .GroupBy({"k"})
                        .DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  for (int64_t k = 0; k < keys; ++k) {
    ++seq;
    CWF_CHECK(op.Put(KeyedEvent(k, 1000, seq), &out).ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.NextDeadline());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_TimeWindowDeadlineIndex)->Arg(10)->Arg(10000);

RecordPtr WideRecord(int64_t width) {
  auto rec = std::make_shared<Record>();
  for (int64_t i = 0; i < width; ++i) {
    rec->Set("field" + std::to_string(i), Value(i));
  }
  return rec;
}

void BM_RecordGetByName(benchmark::State& state) {
  // By-name lookup in the record's layout (a scan up to 8 fields, a hash
  // probe beyond) plus the Result copy; the last field is the worst case
  // of the scan.
  const int64_t width = state.range(0);
  RecordPtr rec = WideRecord(width);
  const std::string last = "field" + std::to_string(width - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec->Get(last));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_RecordGetByName)->Arg(4)->Arg(8)->Arg(16);

void BM_RecordValueAtByIndex(benchmark::State& state) {
  // The schema-resolved path: RecordSchema::IndexOf once (off the hot
  // loop), then O(1) positional access per tuple.
  const int64_t width = state.range(0);
  RecordPtr rec = WideRecord(width);
  RecordSchema schema;
  for (int64_t i = 0; i < width; ++i) {
    schema.Int("field" + std::to_string(i));
  }
  const int index = schema.IndexOf("field" + std::to_string(width - 1));
  CWF_CHECK(index >= 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec->ValueAt(static_cast<size_t>(index)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_RecordValueAtByIndex)->Arg(4)->Arg(8)->Arg(16);

void BM_SchemaIndexOf(benchmark::State& state) {
  // The resolution step itself (hash lookup in the schema's index map), to
  // show the by-name cost that moved off the per-tuple path.
  const int64_t width = state.range(0);
  RecordSchema schema;
  for (int64_t i = 0; i < width; ++i) {
    schema.Int("field" + std::to_string(i));
  }
  const std::string last = "field" + std::to_string(width - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schema.IndexOf(last));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_SchemaIndexOf)->Arg(4)->Arg(16);

// Building a position-report-shaped record (7 ints, 1 double): from a
// layout resolved once (what every producer on the per-event path does),
// against the ad-hoc Set() builder, which also builds the record's own
// layout. Arg: 0 = BuildRecord, 1 = Set.
void BM_RecordBuildFromLayout(benchmark::State& state) {
  const bool by_set = state.range(0) == 1;
  const RecordLayoutPtr layout = RecordLayout::Make(
      {"time", "car", "speed", "xway", "lane", "dir", "seg", "pos"});
  int64_t i = 0;
  for (auto _ : state) {
    ++i;
    RecordPtr rec;
    if (by_set) {
      auto built = std::make_shared<Record>();
      built->Set("time", i).Set("car", i).Set("speed", 55.5).Set("xway", 0);
      built->Set("lane", 1).Set("dir", 0).Set("seg", 7).Set("pos", i);
      rec = std::move(built);
    } else {
      rec = BuildRecord(layout, i, i, 55.5, 0, 1, 0, 7, i);
    }
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(by_set ? "Set" : "BuildRecord");
}
BENCHMARK(BM_RecordBuildFromLayout)->Arg(0)->Arg(1);

// FieldPosition::Find over a stream of records: all of one layout (one
// pointer comparison per read), or alternating between two layouts with
// the field at different positions (a name lookup and a cache refresh per
// read). Arg: 0 = same layout, 1 = alternating.
void BM_FieldPositionFind(benchmark::State& state) {
  const bool alternate = state.range(0) == 1;
  const RecordLayoutPtr ab = RecordLayout::Make({"a", "b", "c", "d"});
  const RecordLayoutPtr ba = RecordLayout::Make({"d", "c", "b", "a"});
  std::vector<RecordPtr> records;
  for (int i = 0; i < 64; ++i) {
    records.push_back(alternate && i % 2 == 1 ? BuildRecord(ba, 4, 3, 2, i)
                                              : BuildRecord(ab, i, 2, 3, 4));
  }
  FieldPosition a("a");
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Find(*records[next]));
    next = (next + 1) % records.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(alternate ? "alternating layouts" : "same layout");
}
BENCHMARK(BM_FieldPositionFind)->Arg(0)->Arg(1);

// Decoding a Linear Road report token: built by ToToken (the static layout,
// positional), parsed from its trace body (same field order, another
// layout), or with its fields in another order (lookup by name). Arg: 0 =
// ToToken, 1 = parsed, 2 = reordered.
void BM_PositionReportFromToken(benchmark::State& state) {
  lrb::PositionReport report;
  report.time = 61;
  report.car = 7;
  report.speed = 55.5;
  report.seg = 12;
  Token token = report.ToToken();
  const char* label = "ToToken";
  if (state.range(0) == 1) {
    token = ParseTokenBody(SerializeTokenBody(token)).value();
    label = "parsed";
  } else if (state.range(0) == 2) {
    auto reordered = std::make_shared<Record>();
    const Record& rec = *token.AsRecord();
    for (size_t i = rec.size(); i-- > 0;) {
      reordered->Set(rec.NameAt(i), rec.ValueAt(i));
    }
    token = Token(RecordPtr(std::move(reordered)));
    label = "reordered";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrb::PositionReport::FromToken(token));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(label);
}
BENCHMARK(BM_PositionReportFromToken)->Arg(0)->Arg(1)->Arg(2);

// PushChannel deposit paths: per-tuple TryPush (one lock round-trip per
// tuple) against TryPushBatch (one lock per batch) — the contrast the
// ingest server's staging drain exploits.
void BM_PushChannelTryPush(benchmark::State& state) {
  PushChannel ch;
  uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    benchmark::DoNotOptimize(
        ch.TryPush(Token(static_cast<int64_t>(seq)),
                   Timestamp(static_cast<int64_t>(seq))));
    if (seq % 4096 == 0) {
      ch.PopArrived(Timestamp::Max());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushChannelTryPush);

void BM_PushChannelTryPushBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  PushChannel ch;
  std::vector<TraceEntry> entries(batch);
  uint64_t seq = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < batch; ++i) {
      ++seq;
      entries[i] = {Timestamp(static_cast<int64_t>(seq)),
                    Token(static_cast<int64_t>(seq))};
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ch.TryPushBatch(entries));
    state.PauseTiming();
    ch.PopArrived(Timestamp::Max());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_PushChannelTryPushBatch)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace cwf

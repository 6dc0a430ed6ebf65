// Window-operator micro-benchmarks: put() throughput across window kinds
// and group-by fan-out (the paper's discussion flags window-based actors as
// the performance-critical component).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <vector>

#include "core/schema.h"
#include "stream/push_channel.h"
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
  auto rec = std::make_shared<Record>();
  rec->Set("k", Value(key));
  rec->Set("v", Value(static_cast<int64_t>(seq)));
  CWEvent e;
  e.token = Token(RecordPtr(std::move(rec)));
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

// A position-report-shaped record (8 fields; the group-by fields car, xway,
// dir, seg sit at positions 1, 3, 5, 6 as in Linear Road).
CWEvent ReportEvent(int64_t car, int64_t ts_us, uint64_t seq) {
  auto rec = std::make_shared<Record>();
  rec->Set("time", Value(ts_us / 1000000))
      .Set("car", Value(car))
      .Set("speed", Value(55.0))
      .Set("xway", Value(car % 4))
      .Set("lane", Value(int64_t{1}))
      .Set("dir", Value(car % 2))
      .Set("seg", Value(car % 100))
      .Set("pos", Value(car * 7));
  CWEvent e;
  e.token = Token(RecordPtr(std::move(rec)));
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
  // Linear scan with string comparison per access; the last field is the
  // worst case and the one group-by/join key extraction hits for tuples
  // whose key trails the payload.
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

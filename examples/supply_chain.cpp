// Supply-chain monitoring (the paper's business-domain application).
//
// A continuous workflow watches a stream of order events and a stream of
// shipment scans:
//   * orders join their shipment scans via wave-synchronization-free
//     group-by windows (order id);
//   * a time window computes per-warehouse throughput each minute;
//   * orders whose scan never arrives stay buffered in the matcher's
//     group-by window and are reported from its pending-event count.
// Runs under the SCWF director with the Rate-Based scheduler.

#include <cstdio>

#include "actors/library.h"
#include "directors/scwf_director.h"
#include "stafilos/rb_scheduler.h"
#include "stream/stream_source.h"

using namespace cwf;

namespace {

Token OrderEvent(int64_t order, const char* warehouse, double value) {
  auto rec = std::make_shared<Record>();
  rec->Set("order", Value(order));
  rec->Set("warehouse", Value(warehouse));
  rec->Set("value", Value(value));
  rec->Set("kind", Value("order"));
  return Token(RecordPtr(std::move(rec)));
}

Token ScanEvent(int64_t order, const char* warehouse) {
  auto rec = std::make_shared<Record>();
  rec->Set("order", Value(order));
  rec->Set("warehouse", Value(warehouse));
  rec->Set("kind", Value("scan"));
  return Token(RecordPtr(std::move(rec)));
}

}  // namespace

int main() {
  Workflow wf("supply_chain");

  auto orders = std::make_shared<PushChannel>();
  auto scans = std::make_shared<PushChannel>();
  auto* order_src = wf.AddActor<StreamSourceActor>("orders", orders);
  auto* scan_src = wf.AddActor<StreamSourceActor>("scans", scans);

  // Merge both streams (orders and scans carry the same schema subset).
  auto* merge = wf.AddActor<MapActor>(
      "merge", [](const Token& t) { return t; });

  // Fulfillment matcher: windows of 2 events grouped by order id — an
  // order followed by its scan. Orders whose scan never arrives stay as
  // partial windows, counted by PendingEventCount() below.
  auto* matcher = wf.AddActor<WindowFnActor>(
      "fulfillment",
      WindowSpec::Tuples(2, 2).GroupBy({"order"}).DeleteUsedEvents(true),
      [](const Window& w, std::vector<Token>* out) {
        bool has_order = false;
        bool has_scan = false;
        for (const CWEvent& e : w.events) {
          const std::string kind = e.token.Field("kind").AsString();
          has_order |= kind == "order";
          has_scan |= kind == "scan";
        }
        if (has_order && has_scan) {
          auto rec = std::make_shared<Record>();
          rec->Set("order", w.events[0].token.Field("order"));
          rec->Set("status", Value("fulfilled"));
          out->push_back(Token(RecordPtr(std::move(rec))));
        }
        return Status::OK();
      });

  // Per-warehouse minute throughput.
  auto* throughput = wf.AddActor<WindowFnActor>(
      "throughput",
      WindowSpec::Time(Seconds(60), Seconds(60))
          .GroupBy({"warehouse"})
          .DeleteUsedEvents(true),
      [](const Window& w, std::vector<Token>* out) {
        auto rec = std::make_shared<Record>();
        rec->Set("warehouse", w.group_key.Field("warehouse"));
        rec->Set("events_per_min", Value(static_cast<int64_t>(w.size())));
        out->push_back(Token(RecordPtr(std::move(rec))));
        return Status::OK();
      });

  auto* fulfilled = wf.AddActor<CollectorSink>("fulfilled");
  auto* stats = wf.AddActor<CollectorSink>("stats");

  // Channel schemas: "value" only rides on order events, so the merged
  // stream declares it optional.
  RecordSchema order_event;
  order_event.Int("order").Str("warehouse").Double("value").Str("kind");
  RecordSchema scan_event;
  scan_event.Int("order").Str("warehouse").Str("kind");
  order_src->out()->set_schema(TokenType::Record(order_event));
  scan_src->out()->set_schema(TokenType::Record(scan_event));
  RecordSchema merged;
  merged.Int("order").Str("warehouse").Field("value", ScalarType::Double(),
                                             /*required=*/false);
  merged.Str("kind");
  merge->out()->set_schema(TokenType::Record(merged));
  RecordSchema fulfillment;
  fulfillment.Int("order").Str("status");
  matcher->out()->set_schema(TokenType::Record(fulfillment));
  RecordSchema warehouse_stats;
  warehouse_stats.Str("warehouse").Int("events_per_min");
  throughput->out()->set_schema(TokenType::Record(warehouse_stats));
  fulfilled->in()->set_required_schema(TokenType::Record(fulfillment));
  stats->in()->set_required_schema(TokenType::Record(warehouse_stats));

  CWF_CHECK(wf.Connect(order_src->out(), merge->in()).ok());
  CWF_CHECK(wf.Connect(scan_src->out(), merge->in()).ok());
  CWF_CHECK(wf.Connect(merge->out(), matcher->in()).ok());
  CWF_CHECK(wf.Connect(merge->out(), throughput->in()).ok());
  CWF_CHECK(wf.Connect(matcher->out(), fulfilled->in()).ok());
  CWF_CHECK(wf.Connect(throughput->out(), stats->in()).ok());

  // Workload: 30 orders across two warehouses over 3 minutes; order 17's
  // scan is "lost in the warehouse".
  for (int i = 0; i < 30; ++i) {
    const char* warehouse = i % 2 == 0 ? "east" : "west";
    const double t = i * 6.0;
    orders->Push(OrderEvent(i, warehouse, 100.0 + i), Timestamp::Seconds(t));
    if (i != 17) {
      scans->Push(ScanEvent(i, warehouse), Timestamp::Seconds(t + 20));
    }
  }
  orders->Close();
  scans->Close();

  VirtualClock clock;
  CostModel cost_model;
  SCWFDirector director(std::make_unique<RBScheduler>());
  CWF_CHECK(director.Initialize(&wf, &clock, &cost_model).ok());
  CWF_CHECK(director.Run(Timestamp::Seconds(400)).ok());

  std::printf("fulfilled orders: %zu of 30\n", fulfilled->count());
  std::printf("per-warehouse minute stats:\n");
  for (const auto& r : stats->TakeSnapshot()) {
    std::printf("  %-5s %lld events/min\n",
                r.token.Field("warehouse").AsString().c_str(),
                static_cast<long long>(
                    r.token.Field("events_per_min").AsInt()));
  }
  // The unmatched order sits in the matcher's partial window, so it is
  // still pending there.
  std::printf("orders still awaiting their scan: %zu (order 17)\n",
              matcher->in()->PendingEventCount());
  return 0;
}

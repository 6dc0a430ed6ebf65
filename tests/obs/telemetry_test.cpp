// Telemetry hook-layer behavior: directors bind instruments into the
// global registry, receiver probes count traffic, runtime toggles stop the
// sinks, and Director::Initialize re-entry resets per-run state (receiver
// high-water marks, actor statistics) without invalidating instruments.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "actors/library.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "obs/export_server.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

struct Rig {
  Workflow wf{"w"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* src;
  MapActor* map;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  Rig() {
    src = wf.AddActor<StreamSourceActor>("src", feed);
    map = wf.AddActor<MapActor>(
        "map", [](const Token& t) { return Token(t.AsInt() + 1); });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
    CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
  }

  void Feed(int n) {
    for (int i = 0; i < n; ++i) {
      feed->Push(Token(i), Timestamp::Seconds(i));
    }
    feed->Close();
  }
};

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().Reset();
    obs::SetMetricsEnabled(true);
  }
  void TearDown() override { obs::SetMetricsEnabled(true); }
};

TEST_F(TelemetryTest, FiringMetricsLandInGlobalRegistry) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  Rig rig;
  rig.Feed(12);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("cwf_actor_firings_total", "actor", "map")->Value(),
            12u);
  EXPECT_EQ(
      reg.GetCounter("cwf_actor_events_consumed_total", "actor", "map")
          ->Value(),
      12u);
  EXPECT_EQ(
      reg.GetCounter("cwf_actor_events_emitted_total", "actor", "map")
          ->Value(),
      12u);
  // Virtual-clock cost lands in the cost histogram.
  EXPECT_EQ(reg.GetHistogram("cwf_actor_cost_us", "actor", "map")->Count(),
            12u);
  // Scheduler decisions were counted for scheduled dispatch.
  EXPECT_GT(reg.GetCounter("cwf_sched_decisions_total", "actor", "map")
                ->Value(),
            0u);
}

TEST_F(TelemetryTest, ReceiverProbesCountPutsGetsAndDepth) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  Rig rig;
  rig.Feed(7);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  // The map actor's input channel is labeled with the port's full name.
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_puts_total", "port", "map.in")->Value(),
      7u);
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_gets_total", "port", "map.in")->Value(),
      7u);
  EXPECT_GE(reg.GetGauge("cwf_receiver_depth", "port", "map.in")->Max(), 1);
}

TEST_F(TelemetryTest, DisablingMetricsStopsSinksButNotExecution) {
  obs::SetMetricsEnabled(false);
  Rig rig;
  rig.Feed(5);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("cwf_actor_firings_total", "actor", "map")->Value(),
            0u);
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_puts_total", "port", "map.in")->Value(),
      0u);
  // The workflow itself ran normally; the scheduler's statistics module,
  // which telemetry does not feed, saw every firing.
  EXPECT_EQ(rig.sink->TakeSnapshot().size(), 5u);
  EXPECT_EQ(d.scheduler()->statistics().Get(rig.map).invocations, 5u);
}

TEST_F(TelemetryTest, InitializeReEntryResetsPerRunState) {
  Rig rig;
  rig.Feed(9);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(d.scheduler()->statistics().Get(rig.map).invocations, 9u);

  // Re-initialize: receivers are rebuilt, every input-port high-water mark
  // and the statistics module start from zero.
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  EXPECT_EQ(d.scheduler()->statistics().Get(rig.map).invocations, 0u);
  for (const auto& actor : rig.wf.actors()) {
    for (const auto& port : actor->input_ports()) {
      for (size_t c = 0; c < port->ChannelCount(); ++c) {
        if (Receiver* r = port->receiver(c)) {
          EXPECT_EQ(r->high_water_mark(), 0u)
              << actor->name() << "." << port->name();
        }
      }
    }
  }
  // Instrument pointers stayed valid: a second run keeps counting on the
  // same instruments (cumulative across runs by design).
  // The original feed is drained/closed; a fresh run over the same actors
  // simply observes no new input and fires nothing — Run must still work.
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
}

TEST_F(TelemetryTest, RebindingSameWorkflowKeepsTrackTable) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  Rig rig;
  obs::WorkflowTelemetry telemetry;
  telemetry.Bind(rig.wf, "SCWF");
  const size_t tracks = obs::GlobalTracer().TrackNames().size();
  std::vector<uint32_t> tids;
  for (const auto& actor : rig.wf.actors()) {
    tids.push_back(telemetry.TrackFor(actor.get()));
    EXPECT_NE(tids.back(), 0u) << actor->name();
  }
  // Every Build+Initialize re-binds; the track table must not grow with it.
  for (int i = 0; i < 100; ++i) {
    telemetry.Bind(rig.wf, "SCWF");
  }
  EXPECT_EQ(obs::GlobalTracer().TrackNames().size(), tracks);
  for (size_t i = 0; i < rig.wf.actors().size(); ++i) {
    EXPECT_EQ(telemetry.TrackFor(rig.wf.actors()[i].get()), tids[i])
        << rig.wf.actors()[i]->name();
  }
}

/// The /top queue_hwm column of `actor` (7th field), or -1 when absent.
int64_t TopQueueHwm(const std::string& tsv, const std::string& actor) {
  std::istringstream lines(tsv);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    std::string field;
    while (std::getline(fields, field, '\t')) {
      row.push_back(field);
    }
    if (row.size() >= 7 && row[0] == actor) {
      return std::stoll(row[6]);
    }
  }
  return -1;
}

/// Largest receiver high-water mark over `actor`'s input channels.
int64_t MaxReceiverHighWater(const Actor* actor) {
  uint64_t hwm = 0;
  for (const auto& port : actor->input_ports()) {
    for (size_t c = 0; c < port->ChannelCount(); ++c) {
      if (const Receiver* r = port->receiver(c)) {
        hwm = std::max(hwm, r->high_water_mark());
      }
    }
  }
  return static_cast<int64_t>(hwm);
}

TEST_F(TelemetryTest, TopTsvRendersBoundActors) {
#ifndef CWF_OBS_ENABLED
  GTEST_SKIP() << "built with CONFLUENCE_OBS=OFF";
#endif
  Rig rig;
  rig.Feed(4);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  const std::string tsv = obs::RenderTopTsv(obs::MetricsRegistry::Global());
  EXPECT_EQ(tsv.rfind("# ts_us ", 0), 0u);
  EXPECT_NE(tsv.find("actor\tfirings"), std::string::npos);
  EXPECT_NE(tsv.find("\nmap\t4\t"), std::string::npos);
  // queue_hwm is derived from the per-channel depth gauges, so it matches
  // the receivers' own high-water marks.
  for (const auto& actor : rig.wf.actors()) {
    EXPECT_EQ(TopQueueHwm(tsv, actor->name()),
              MaxReceiverHighWater(actor.get()))
        << actor->name();
  }
  EXPECT_GT(TopQueueHwm(tsv, "map"), 0);

  // The column is not an SCWF-only figure: the same input under PNCWF
  // (simulated threads) reports its receivers' marks too.
  obs::MetricsRegistry::Global().Reset();
  Rig pn_rig;
  pn_rig.Feed(16);
  PNCWFDirector pn;
  ASSERT_TRUE(pn.Initialize(&pn_rig.wf, &pn_rig.clock, &pn_rig.cm).ok());
  ASSERT_TRUE(pn.Run(Timestamp::Max()).ok());
  ASSERT_EQ(pn_rig.sink->TakeSnapshot().size(), 16u);
  const std::string pn_tsv =
      obs::RenderTopTsv(obs::MetricsRegistry::Global());
  for (const auto& actor : pn_rig.wf.actors()) {
    EXPECT_EQ(TopQueueHwm(pn_tsv, actor->name()),
              MaxReceiverHighWater(actor.get()))
        << actor->name();
  }
  EXPECT_GT(TopQueueHwm(pn_tsv, "map"), 0);
  EXPECT_GT(TopQueueHwm(pn_tsv, "sink"), 0);
}

}  // namespace
}  // namespace cwf

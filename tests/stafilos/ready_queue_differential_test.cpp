// Differential test of the scheduler's per-actor ready-window queues.
//
// The AbstractScheduler sorts QueuedWindow handles ({key_ts, key_seq,
// store slot}) and parks the windows themselves in a reused store. This
// test drives random Enqueue / PopWindow / OnIterationEnd sequences through
// every built-in policy and checks that windows pop in exactly the order a
// reference std::push_heap / std::pop_heap over full ReadyWindows with the
// same comparator gives, ties included. It also checks that a popped
// window's record is released once the caller drops it, so the store's
// reused slots keep nothing alive.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "actors/library.h"
#include "directors/scwf_director.h"
#include "stafilos/edf_scheduler.h"
#include "stafilos/fifo_scheduler.h"
#include "stafilos/qbs_scheduler.h"
#include "stafilos/rb_scheduler.h"
#include "stafilos/rr_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

/// src1 and src2 fan into the two channels of merge.in; merge -> sink.
struct FanInRig {
  Workflow wf{"fan_in"};
  std::shared_ptr<PushChannel> feed1 = std::make_shared<PushChannel>();
  std::shared_ptr<PushChannel> feed2 = std::make_shared<PushChannel>();
  MapActor* merge;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  FanInRig() {
    auto* src1 = wf.AddActor<StreamSourceActor>("src1", feed1);
    auto* src2 = wf.AddActor<StreamSourceActor>("src2", feed2);
    merge = wf.AddActor<MapActor>("merge", [](const Token& t) { return t; });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src1->out(), merge->in()).ok());
    CWF_CHECK(wf.Connect(src2->out(), merge->in()).ok());
    CWF_CHECK(wf.Connect(merge->out(), sink->in()).ok());
  }
};

/// The comparator AbstractScheduler uses, over full windows.
struct RefHeapCmp {
  bool operator()(const ReadyWindow& a, const ReadyWindow& b) const {
    if (a.key_ts != b.key_ts) {
      return a.key_ts > b.key_ts;
    }
    return a.key_seq > b.key_seq;
  }
};

/// Reference queue of one actor: a heap of full ReadyWindows plus the
/// next-period buffer of a buffering policy.
struct RefQueue {
  std::vector<ReadyWindow> heap;
  std::vector<ReadyWindow> period;
};

int64_t WindowId(const ReadyWindow& rw) {
  return rw.window.events.front().token.Field("id").AsInt();
}

struct PolicyCase {
  const char* name;
  bool buffers_to_next_period;
  std::function<std::unique_ptr<AbstractScheduler>()> make;
};

void RunDifferential(const PolicyCase& policy, uint32_t seed) {
  SCOPED_TRACE(std::string(policy.name) + " seed " + std::to_string(seed));
  FanInRig rig;
  SCWFDirector director(policy.make());
  ASSERT_TRUE(director.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  AbstractScheduler* sched = director.scheduler();

  TMWindowedReceiver* receivers[2] = {
      static_cast<TMWindowedReceiver*>(rig.merge->in()->receiver(0)),
      static_cast<TMWindowedReceiver*>(rig.merge->in()->receiver(1))};
  TMWindowedReceiver* sink_receiver =
      static_cast<TMWindowedReceiver*>(rig.sink->in()->receiver(0));
  Actor* targets[2] = {rig.merge, rig.sink};
  std::map<const Actor*, RefQueue> ref;
  std::map<int64_t, RecordPtr> records;

  std::mt19937 rng(seed);
  int64_t next_id = 1;
  int64_t last_ts = 0;
  uint64_t last_seq = 1;

  auto enqueue = [&](int target) {
    const int64_t id = next_id++;
    // Few distinct keys, and one enqueue in three repeats the previous key
    // from the other receiver: ties are the common case.
    int64_t ts = static_cast<int64_t>(rng() % 4) * 1000;
    uint64_t seq = 1 + rng() % 3;
    if (rng() % 3 == 0) {
      ts = last_ts;
      seq = last_seq;
    }
    last_ts = ts;
    last_seq = seq;
    RecordPtr record = MakeRecord(std::make_pair(std::string("id"), Value(id)));
    records[id] = record;
    ReadyWindow rw;
    rw.receiver = target == 0 ? receivers[id % 2] : sink_receiver;
    CWEvent e(Token(record), Timestamp(ts), WaveTag::Root(id));
    e.seq = seq;
    rw.window.events.push_back(e);
    if (rng() % 4 == 0) {
      // A second, later event: the window's key stays its oldest event.
      CWEvent later = e;
      later.timestamp = Timestamp(ts + 500);
      later.seq = seq + 10;
      rw.window.events.push_back(later);
    }
    ReadyWindow mirror = rw;
    mirror.key_ts = mirror.window.OldestTimestamp();
    mirror.key_seq = mirror.window.events.front().seq;
    RefQueue& q = ref[targets[target]];
    if (policy.buffers_to_next_period) {
      q.period.push_back(std::move(mirror));
    } else {
      q.heap.push_back(std::move(mirror));
      std::push_heap(q.heap.begin(), q.heap.end(), RefHeapCmp());
    }
    sched->Enqueue(targets[target], std::move(rw));
  };

  auto pop = [&](int target) {
    RefQueue& q = ref[targets[target]];
    std::optional<ReadyWindow> got = sched->PopWindow(targets[target]);
    if (q.heap.empty()) {
      EXPECT_FALSE(got.has_value());
      return;
    }
    std::pop_heap(q.heap.begin(), q.heap.end(), RefHeapCmp());
    std::optional<ReadyWindow> want(std::move(q.heap.back()));
    q.heap.pop_back();
    ASSERT_TRUE(got.has_value());
    const int64_t id = WindowId(*want);
    EXPECT_EQ(WindowId(*got), id);
    EXPECT_EQ(got->receiver, want->receiver);
    EXPECT_EQ(got->key_ts, want->key_ts);
    EXPECT_EQ(got->key_seq, want->key_seq);
    EXPECT_EQ(got->window.events.size(), want->window.events.size());
    got.reset();
    want.reset();
    EXPECT_EQ(records[id].use_count(), 1) << "window " << id;
    records.erase(id);
  };

  for (int op = 0; op < 600; ++op) {
    const uint32_t roll = rng() % 10;
    const int target = static_cast<int>(rng() % 2);
    if (roll < 5) {
      enqueue(target);
    } else if (roll < 9) {
      pop(target);
    } else {
      sched->OnIterationEnd();
      for (auto& [actor, q] : ref) {
        for (ReadyWindow& w : q.period) {
          q.heap.push_back(std::move(w));
          std::push_heap(q.heap.begin(), q.heap.end(), RefHeapCmp());
        }
        q.period.clear();
      }
    }
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(sched->QueuedWindows(targets[t]), ref[targets[t]].heap.size());
      EXPECT_EQ(sched->BufferedWindows(targets[t]),
                ref[targets[t]].period.size());
    }
  }
  // Release every buffered window, then drain both queues.
  sched->OnIterationEnd();
  for (auto& [actor, q] : ref) {
    for (ReadyWindow& w : q.period) {
      q.heap.push_back(std::move(w));
      std::push_heap(q.heap.begin(), q.heap.end(), RefHeapCmp());
    }
    q.period.clear();
  }
  for (int t = 0; t < 2; ++t) {
    while (!ref[targets[t]].heap.empty()) {
      pop(t);
    }
    EXPECT_FALSE(sched->PopWindow(targets[t]).has_value());
  }
  EXPECT_EQ(sched->TotalQueuedEvents(), 0u);
  EXPECT_TRUE(records.empty());
}

TEST(ReadyQueueDifferentialTest, PopOrderMatchesFullWindowHeapForEveryPolicy) {
  const std::vector<PolicyCase> policies = {
      {"FIFO", false, [] { return std::make_unique<FIFOScheduler>(); }},
      {"EDF", false, [] { return std::make_unique<EDFScheduler>(); }},
      {"RR", false, [] { return std::make_unique<RRScheduler>(); }},
      {"QBS", false, [] { return std::make_unique<QBSScheduler>(); }},
      {"RB", true, [] { return std::make_unique<RBScheduler>(); }},
  };
  for (const PolicyCase& policy : policies) {
    for (uint32_t seed = 1; seed <= 8; ++seed) {
      RunDifferential(policy, seed);
    }
  }
}

}  // namespace
}  // namespace cwf

// The benchmark's workloads. Each one generates its input from the seed,
// times calls into the engine's public entry points from outside, and fills
// a Report that main() prints as one JSON document for run.py.
//
//   ramp_overload  SCWF + QBS on the virtual clock; the input rate ramps
//                  across the scheduled capacity, so a backlog builds.
//   steady_soak    PNCWF (simulated threads) on the virtual clock at a
//                  constant rate below capacity, with frequent accidents.
//   live_tcp       PNCWF (OS threads) on a real clock, fed over loopback TCP
//                  through IngestServer by an open-loop sender.

#ifndef CONFLUENCE_PERFBENCH_WORKLOADS_H_
#define CONFLUENCE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "stream/trace.h"

namespace cwf::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// \brief One benchmark-side span around a call into an engine layer.
struct Span {
  std::string name;
  std::string parent;
  double start_s = 0;
  double end_s = 0;
};

/// \brief Everything a run measured.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Simulated outputs of each repetition (virtual workloads) or the
  /// delivery counts of each live run; run.py checks these.
  std::vector<JsonObject> outputs;
  /// Every metric measured, by name (end-to-end and per-layer).
  std::map<std::string, double> metrics;
  /// Profiler self time per phase, µs (traced runs only).
  std::map<std::string, double> host_phase_us;
  /// Context run.py prints but does not gate on.
  std::map<std::string, double> info;
  std::vector<Span> spans;
  /// Wall-clock origin of the spans' times.
  double origin_s = WallSeconds();
  /// Non-empty when the run could not complete.
  std::string error;
};

/// \brief Records spans into a report, relative to its origin.
class SpanRecorder {
 public:
  explicit SpanRecorder(Report* report) : report_(report) {}
  /// Open a span; returns its index for Close().
  size_t Open(const std::string& name, const std::string& parent = "");
  void Close(size_t index);

 private:
  Report* report_;
};

bool IsVirtualWorkload(const std::string& name);

/// \brief ramp_overload and steady_soak.
Report RunVirtualWorkload(const RunOptions& options);

/// \brief live_tcp.
Report RunLiveTcp(const RunOptions& options);

/// \brief The layer replay (traced runs): pushes `trace` through the
/// window receiver, db, PushChannel and FrameDecoder entry points and adds
/// ns-per-call and final state sizes to `report`. With `replay_ingest`, the
/// trace is also sent through a loopback IngestServer by the open-loop
/// sender to measure send lag and backpressure.
void RunLayerReplay(const Trace& trace, bool replay_ingest, Report* report);

/// \brief Credit the global profiler's phase totals to `report`
/// (profile.<phase>_share, profile.coverage_pct, host_phase_us).
void AddProfileMetrics(Report* report);

/// \brief Open-loop sender: replays `trace` as binary frames over
/// `connections` loopback TCP connections to 127.0.0.1:`port`, one frame
/// every 1/`rate` seconds for at most `seconds`, whatever the receiver does.
struct SendResult {
  uint64_t sent = 0;
  std::vector<double> lag_ms;  ///< how late each frame left, vs its due time
  bool ok = true;
};
SendResult SendOpenLoop(const Trace& trace, uint16_t port, int connections,
                        double rate, double seconds);

}  // namespace cwf::perfbench

#endif  // CONFLUENCE_PERFBENCH_WORKLOADS_H_

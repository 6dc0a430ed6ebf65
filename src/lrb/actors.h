// Linear Road workflow actors (paper Appendix A, Figures 10–15).
//
// Three areas: accident detection/notification, segment statistics, and
// toll calculation/notification. Window semantics on the input ports are
// exactly the ones the paper specifies per actor. Actors that the paper
// backs with a relational database (accident bookkeeping, segment
// statistics, toll lookup) use the embedded store (src/db).

#ifndef CONFLUENCE_LRB_ACTORS_H_
#define CONFLUENCE_LRB_ACTORS_H_

#include <memory>
#include <vector>

#include "core/actor.h"
#include "db/database.h"
#include "lrb/types.h"

namespace cwf::lrb {

// Table / column names of the LRB side-store.
inline constexpr const char* kTableSegmentStats = "segmentStatistics";
inline constexpr const char* kTableSegmentAvgSpeed = "segmentAvgSpeed";
inline constexpr const char* kTableAccidents = "accidentInSegment";

/// \brief Create the two LRB relations with their indexes.
Result<std::shared_ptr<db::Database>> CreateLRBDatabase();

/// \brief The accident-proximity query (the paper's toll SQL) prepared on
/// accidentInSegment: is an accident registered within
/// `kAccidentNotifySegments` downstream of (xway, dir, seg) with a
/// bookkeeping timestamp >= `since` seconds? Shared by AccidentNotifier and
/// TollCalculator, which prepare it at Initialize.
class AccidentScope {
 public:
  Status Prepare(const db::Table* accidents);

  /// \brief Run the prepared query; allocates nothing.
  Result<bool> InScope(int64_t xway, int64_t dir, int64_t seg,
                       int64_t since_seconds) const;

 private:
  const db::Table* table_ = nullptr;
  db::PreparedQuery query_;
};

/// \brief One-shot AccidentScope: prepares the query, then runs it. For
/// tools and tests; an actor prepares once at Initialize.
Result<bool> AccidentInScope(db::Table* accidents, int64_t xway, int64_t dir,
                             int64_t seg, int64_t since_seconds);

/// \brief Detects stopped cars: window {Size: 4 tokens, Step: 1 token,
/// Group-by: car}. If all four reports of a car show the same position (and
/// it is not in the exit lane), the first of those reports is emitted.
class StoppedCarDetector : public Actor {
 public:
  explicit StoppedCarDetector(std::string name);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Fire() override;

 private:
  InputPort* in_;
  OutputPort* out_;
};

/// \brief Detects accidents: window {Size: 2 tokens, Step: 1 token,
/// Group-by: position} over stopped-car reports. Two *different* cars
/// stopped at the same position (not in an exit lane) mean a crash; emits
/// an accident record {time, xway, dir, seg, pos, car1, car2}.
class AccidentDetector : public Actor {
 public:
  explicit AccidentDetector(std::string name);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

 private:
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
};

/// \brief Records detected accidents into the accidentInSegment relation
/// (upsert keyed on the car pair, so the repeated detections of one crash
/// refresh its timestamp instead of duplicating rows).
class InsertAccident : public Actor {
 public:
  InsertAccident(std::string name, db::Database* database);

  InputPort* in() const { return in_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

  uint64_t accidents_recorded() const { return recorded_; }

 private:
  db::Database* database_;
  db::Table* table_ = nullptr;
  db::PreparedUpsert upsert_;
  FieldPosition time_{"time"};
  /// The row's fields ahead of the timestamp, in column order.
  std::vector<FieldPosition> row_fields_;
  InputPort* in_;
  uint64_t recorded_ = 0;
};

/// \brief For every position report, checks the database for an accident
/// registered within four segments downstream in the last minute and emits
/// a notification record if one exists.
class AccidentNotifier : public Actor {
 public:
  AccidentNotifier(std::string name, db::Database* database);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

 private:
  db::Database* database_;
  AccidentScope scope_;
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
};

/// \brief Average speed per car per segment per minute (Avgsv): window
/// {Size: 1 minute, Step: 1 minute, Group-by: car, xway, dir, seg}.
class AvgsvActor : public Actor {
 public:
  explicit AvgsvActor(std::string name);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

 private:
  FieldPosition speed_{kFieldSpeed};
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
};

/// \brief Per-segment average speed per minute (Avgs): window {Size: 1
/// minute, Step: 1 minute, Group-by: xway, dir, seg} over Avgsv outputs.
/// Stores the minute average and refreshes the segment's LAV (average of
/// the averages of the last five minutes) in segmentStatistics.
class AvgsActor : public Actor {
 public:
  AvgsActor(std::string name, db::Database* database);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

 private:
  db::Database* database_;
  db::Table* avg_table_ = nullptr;
  db::Table* stats_table_ = nullptr;
  size_t avg_speed_column_ = 0;
  /// Statements prepared at Initialize, and the row SelectOne copies into.
  db::PreparedQuery lav_query_;
  db::PreparedQuery stats_lookup_;
  db::PreparedUpsert stats_upsert_;
  db::Row row_;
  FieldPosition avg_speed_{"avg_speed"};
  FieldPosition minute_{"minute"};
  FieldPosition xway_{kFieldXway};
  FieldPosition dir_{kFieldDir};
  FieldPosition seg_{kFieldSeg};
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
};

/// \brief Cars per segment per minute (cars): window {Size: 1 minute,
/// Step: 1 minute, Group-by: xway, dir, seg}; counts distinct cars and
/// upserts segmentStatistics.cars.
class CarCountActor : public Actor {
 public:
  CarCountActor(std::string name, db::Database* database);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

 private:
  db::Database* database_;
  db::Table* stats_table_ = nullptr;
  db::PreparedQuery stats_lookup_;
  db::PreparedUpsert stats_upsert_;
  db::Row row_;
  std::vector<int64_t> cars_;
  FieldPosition car_{kFieldCar};
  FieldPosition time_{kFieldTime};
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
};

/// \brief Toll calculation: window {Size: 2 tokens, Step: 1 token,
/// Group-by: car}. When the two latest reports of a car differ in segment,
/// queries segmentStatistics + accident proximity (the paper's SQL) and
/// emits a toll notification record {car, time, xway, dir, seg, toll}.
class TollCalculator : public Actor {
 public:
  TollCalculator(std::string name, db::Database* database);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

  uint64_t tolls_calculated() const { return tolls_; }

 private:
  db::Database* database_;
  db::Table* stats_table_ = nullptr;
  db::PreparedQuery stats_lookup_;
  db::Row row_;
  AccidentScope scope_;
  InputPort* in_;
  OutputPort* out_;
  RecordLayoutPtr out_layout_;
  uint64_t tolls_ = 0;
};

}  // namespace cwf::lrb

#endif  // CONFLUENCE_LRB_ACTORS_H_

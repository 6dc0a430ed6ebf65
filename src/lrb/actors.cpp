#include "lrb/actors.h"

#include <algorithm>

namespace cwf::lrb {
namespace {

using db::AggKind;
using db::ColumnType;
using db::Param;
using db::Row;

// Layouts of the records flowing between the LRB actors (schema pass).
RecordSchema AccidentSchema() {
  RecordSchema s;
  s.Int("time").Int("xway").Int("dir").Int("seg").Int("pos").Int("car1").Int(
      "car2");
  return s;
}

RecordSchema NotificationSchema() {
  RecordSchema s;
  s.Int("car").Int("time").Int("xway").Int("dir").Int("seg");
  return s;
}

RecordSchema AvgsvSchema() {
  RecordSchema s;
  s.Int("car").Int("xway").Int("dir").Int("seg").Int("minute").Double(
      "avg_speed");
  return s;
}

RecordSchema AvgsSchema() {
  RecordSchema s;
  s.Int("xway").Int("dir").Int("seg").Int("minute").Double("lav");
  return s;
}

RecordSchema CarCountSchema() {
  RecordSchema s;
  s.Int("xway").Int("dir").Int("seg").Int("minute").Int("cars");
  return s;
}

RecordSchema TollSchema() {
  RecordSchema s;
  s.Int("car").Int("time").Int("xway").Int("dir").Int("seg").Double("toll");
  return s;
}

/// The layout of `port`'s declared record schema, which must be `expected`
/// (the field order every output site of the actor writes in). Resolved at
/// Initialize; each output record is built from it.
Result<RecordLayoutPtr> OutputLayout(const OutputPort* port,
                                     const RecordSchema& expected) {
  const RecordSchemaPtr& declared = port->schema().record_schema();
  if (declared == nullptr || *declared != expected) {
    return Status::FailedPrecondition(
        "output port '" + port->name() + "' must declare record schema " +
        expected.ToString() + ", has " + port->schema().ToString());
  }
  return declared->layout();
}

Token MakeAccidentToken(const RecordLayoutPtr& layout, const PositionReport& a,
                        const PositionReport& b) {
  return Token(BuildRecord(layout, std::max(a.time, b.time), a.xway, a.dir,
                           a.seg, a.pos, std::min(a.car, b.car),
                           std::max(a.car, b.car)));
}

/// "xway = ?0 AND dir = ?1 AND seg = ?2" on `table`: the segment lookup of
/// segmentStatistics (and the prefix of the LAV query).
Result<db::PreparedQuery> PrepareSegmentLookup(const db::Table* table) {
  return table->Prepare(db::And({db::Eq("xway", Param(0)),
                                 db::Eq("dir", Param(1)),
                                 db::Eq("seg", Param(2))}));
}

}  // namespace

Result<std::shared_ptr<db::Database>> CreateLRBDatabase() {
  auto database = std::make_shared<db::Database>();

  CWF_ASSIGN_OR_RETURN(
      db::Table * stats,
      database->CreateTable(
          kTableSegmentStats,
          db::Schema({{"xway", ColumnType::kInt64},
                      {"dir", ColumnType::kInt64},
                      {"seg", ColumnType::kInt64},
                      {"lav", ColumnType::kDouble},
                      {"cars", ColumnType::kInt64},
                      {"minute", ColumnType::kInt64}})));
  CWF_RETURN_NOT_OK(
      stats->CreateIndex("pk_segment", {"xway", "dir", "seg"}, true));

  CWF_ASSIGN_OR_RETURN(
      db::Table * avg_speed,
      database->CreateTable(
          kTableSegmentAvgSpeed,
          db::Schema({{"xway", ColumnType::kInt64},
                      {"dir", ColumnType::kInt64},
                      {"seg", ColumnType::kInt64},
                      {"minute", ColumnType::kInt64},
                      {"avg_speed", ColumnType::kDouble}})));
  CWF_RETURN_NOT_OK(avg_speed->CreateIndex("idx_segment_minute",
                                           {"xway", "dir", "seg"}, false));

  CWF_ASSIGN_OR_RETURN(
      db::Table * accidents,
      database->CreateTable(
          kTableAccidents,
          db::Schema({{"xway", ColumnType::kInt64},
                      {"dir", ColumnType::kInt64},
                      {"seg", ColumnType::kInt64},
                      {"pos", ColumnType::kInt64},
                      {"car1", ColumnType::kInt64},
                      {"car2", ColumnType::kInt64},
                      {"timestamp", ColumnType::kInt64}})));
  CWF_RETURN_NOT_OK(
      accidents->CreateIndex("idx_xway_dir", {"xway", "dir"}, false));

  return database;
}

Status AccidentScope::Prepare(const db::Table* accidents) {
  // Predicates are immutable, so one statement serves every preparation
  // (and the one-shot AccidentInScope does not rebuild it per call).
  static const db::PredicatePtr statement =
      db::And({db::Eq("xway", Param(0)), db::Eq("dir", Param(1)),
               db::Ge("seg", Param(2)), db::Le("seg", Param(3)),
               db::Ge("timestamp", Param(4))});
  CWF_ASSIGN_OR_RETURN(query_, accidents->Prepare(statement));
  table_ = accidents;
  return Status::OK();
}

Result<bool> AccidentScope::InScope(int64_t xway, int64_t dir, int64_t seg,
                                    int64_t since_seconds) const {
  // The paper's proximity predicate (its toll SQL): for dir==1 the car's
  // segment lies in [accident, accident+4], i.e. the accident is in
  // [seg-4, seg]; for dir==0 the accident is in [seg, seg+4] — four
  // segments down the road — and registered within the last minute.
  const int64_t lo = dir == 1 ? seg - kAccidentNotifySegments : seg;
  const int64_t hi = dir == 1 ? seg : seg + kAccidentNotifySegments;
  const Value params[] = {Value(xway), Value(dir), Value(lo), Value(hi),
                          Value(since_seconds)};
  CWF_ASSIGN_OR_RETURN(size_t count, table_->Count(query_, params));
  return count > 0;
}

Result<bool> AccidentInScope(db::Table* accidents, int64_t xway, int64_t dir,
                             int64_t seg, int64_t since_seconds) {
  AccidentScope scope;
  CWF_RETURN_NOT_OK(scope.Prepare(accidents));
  return scope.InScope(xway, dir, seg, since_seconds);
}

// ---------------------------------------------------------------------------
// Accident detection and notification
// ---------------------------------------------------------------------------

StoppedCarDetector::StoppedCarDetector(std::string name)
    : Actor(std::move(name)) {
  in_ = AddInputPort(
      "in", WindowSpec::Tuples(kStoppedReportCount, 1).GroupBy({kFieldCar}));
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(PositionReportType());  // forwards the first stopped report
}

Status StoppedCarDetector::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() ||
      w->size() < static_cast<size_t>(kStoppedReportCount)) {
    return Status::OK();
  }
  const PositionReport first = PositionReport::FromToken(w->events[0].token);
  if (first.lane == kExitLane) {
    return Status::OK();
  }
  for (size_t i = 1; i < w->size(); ++i) {
    const PositionReport r = PositionReport::FromToken(w->events[i].token);
    if (r.pos != first.pos || r.lane != first.lane || r.xway != first.xway ||
        r.dir != first.dir) {
      return Status::OK();
    }
  }
  // Stopped: forward the first of the four reports.
  Send(out_, w->events[0].token);
  return Status::OK();
}

AccidentDetector::AccidentDetector(std::string name) : Actor(std::move(name)) {
  in_ = AddInputPort("in",
                     WindowSpec::Tuples(2, 1).GroupBy(
                         {kFieldXway, kFieldDir, kFieldSeg, kFieldPos}));
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(TokenType::Record(AccidentSchema()));
}

Status AccidentDetector::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(out_layout_, OutputLayout(out_, AccidentSchema()));
  return Status::OK();
}

Status AccidentDetector::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() || w->size() < 2) {
    return Status::OK();
  }
  const PositionReport a = PositionReport::FromToken(w->events[0].token);
  const PositionReport b = PositionReport::FromToken(w->events[1].token);
  if (a.car == b.car || a.lane == kExitLane || b.lane == kExitLane) {
    return Status::OK();
  }
  Send(out_, MakeAccidentToken(out_layout_, a, b));
  return Status::OK();
}

InsertAccident::InsertAccident(std::string name, db::Database* database)
    : Actor(std::move(name)),
      database_(database),
      row_fields_({FieldPosition("xway"), FieldPosition("dir"),
                   FieldPosition("seg"), FieldPosition("pos"),
                   FieldPosition("car1"), FieldPosition("car2")}) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in");
  in_->set_required_schema(TokenType::Record(AccidentSchema()));
}

Status InsertAccident::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(table_, database_->GetTable(kTableAccidents));
  CWF_ASSIGN_OR_RETURN(upsert_, table_->PrepareUpsert(
                                    {"xway", "dir", "seg", "car1", "car2"}));
  return Status::OK();
}

Status InsertAccident::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  for (const CWEvent& e : w->events) {
    const Record& rec = *e.token.AsRecord();
    // Bookkeeping timestamp = detection time: the arrival of the report
    // that closed the stopped-car window (the CWEvent envelope), not the
    // 90-second-old first report inside it — otherwise the notifier's
    // 60-second recency filter can never match.
    const int64_t detected_at =
        std::max(time_.GetOr(rec, Value(int64_t{0})).AsInt(),
                 static_cast<int64_t>(e.timestamp.seconds()));
    Row row;
    row.reserve(row_fields_.size() + 1);
    for (FieldPosition& field : row_fields_) {
      row.push_back(field.GetOr(rec, Value(0)));
    }
    row.emplace_back(detected_at);
    auto upserted = table_->Upsert(upsert_, std::move(row));
    if (!upserted.ok()) {
      return upserted.status();
    }
    if (!upserted.value()) {
      ++recorded_;  // a genuinely new incident
    }
  }
  return Status::OK();
}

AccidentNotifier::AccidentNotifier(std::string name, db::Database* database)
    : Actor(std::move(name)), database_(database) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in");
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(TokenType::Record(NotificationSchema()));
}

Status AccidentNotifier::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(out_layout_,
                       OutputLayout(out_, NotificationSchema()));
  CWF_ASSIGN_OR_RETURN(db::Table * accidents,
                       database_->GetTable(kTableAccidents));
  return scope_.Prepare(accidents);
}

Status AccidentNotifier::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  for (const CWEvent& e : w->events) {
    const PositionReport r = PositionReport::FromToken(e.token);
    if (r.lane == kExitLane) {
      continue;
    }
    auto hit = scope_.InScope(r.xway, r.dir, r.seg, r.time - 60);
    if (!hit.ok()) {
      return hit.status();
    }
    if (hit.value()) {
      Send(out_,
           Token(BuildRecord(out_layout_, r.car, r.time, r.xway, r.dir,
                             r.seg)));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Segment statistics
// ---------------------------------------------------------------------------

AvgsvActor::AvgsvActor(std::string name) : Actor(std::move(name)) {
  in_ = AddInputPort(
      "in", WindowSpec::Time(Seconds(60), Seconds(60))
                .GroupBy({kFieldCar, kFieldXway, kFieldDir, kFieldSeg})
                .DeleteUsedEvents(true));
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(TokenType::Record(AvgsvSchema()));
}

Status AvgsvActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(out_layout_, OutputLayout(out_, AvgsvSchema()));
  return Status::OK();
}

Status AvgsvActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() || w->empty()) {
    return Status::OK();
  }
  double sum = 0;
  for (const CWEvent& e : w->events) {
    sum += speed_.Get(*e.token.AsRecord()).AsDouble();
  }
  const PositionReport r = PositionReport::FromToken(w->events[0].token);
  Send(out_, Token(BuildRecord(out_layout_, r.car, r.xway, r.dir, r.seg,
                               r.time / 60,
                               sum / static_cast<double>(w->size()))));
  return Status::OK();
}

AvgsActor::AvgsActor(std::string name, db::Database* database)
    : Actor(std::move(name)), database_(database) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in", WindowSpec::Time(Seconds(60), Seconds(60))
                               .GroupBy({"xway", "dir", "seg"})
                               .DeleteUsedEvents(true));
  out_ = AddOutputPort("out");
  in_->set_required_schema(TokenType::Record(AvgsvSchema()));
  out_->set_schema(TokenType::Record(AvgsSchema()));
}

Status AvgsActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(avg_table_, database_->GetTable(kTableSegmentAvgSpeed));
  CWF_ASSIGN_OR_RETURN(stats_table_, database_->GetTable(kTableSegmentStats));
  CWF_ASSIGN_OR_RETURN(avg_speed_column_,
                       avg_table_->schema().ColumnIndex("avg_speed"));
  CWF_ASSIGN_OR_RETURN(
      lav_query_,
      avg_table_->Prepare(db::And({db::Eq("xway", Param(0)),
                                   db::Eq("dir", Param(1)),
                                   db::Eq("seg", Param(2)),
                                   db::Ge("minute", Param(3))})));
  CWF_ASSIGN_OR_RETURN(stats_lookup_, PrepareSegmentLookup(stats_table_));
  CWF_ASSIGN_OR_RETURN(stats_upsert_,
                       stats_table_->PrepareUpsert({"xway", "dir", "seg"}));
  CWF_ASSIGN_OR_RETURN(out_layout_, OutputLayout(out_, AvgsSchema()));
  return Status::OK();
}

Status AvgsActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() || w->empty()) {
    return Status::OK();
  }
  double sum = 0;
  int64_t minute = 0;
  for (const CWEvent& e : w->events) {
    const Record& rec = *e.token.AsRecord();
    sum += avg_speed_.Get(rec).AsDouble();
    minute = std::max(minute, minute_.Get(rec).AsInt());
  }
  const double avg = sum / static_cast<double>(w->size());
  const Record& first = *w->events[0].token.AsRecord();
  const int64_t xway = xway_.GetOr(first, Value(0)).AsInt();
  const int64_t dir = dir_.GetOr(first, Value(0)).AsInt();
  const int64_t seg = seg_.GetOr(first, Value(0)).AsInt();

  // Record this minute's segment average.
  auto ins = avg_table_->Insert(
      {Value(xway), Value(dir), Value(seg), Value(minute), Value(avg)});
  if (!ins.ok()) {
    return ins.status();
  }

  // LAV = average of the per-minute averages over the last five minutes.
  // Parameters: the segment key, then the oldest minute.
  const Value params[] = {Value(xway), Value(dir), Value(seg),
                          Value(minute - 4)};
  auto lav = avg_table_->Aggregate(AggKind::kAvg, avg_speed_column_,
                                   lav_query_, params);
  if (!lav.ok()) {
    return lav.status();
  }
  const double lav_value = lav.value().is_null() ? avg : lav.value().AsDouble();

  // Refresh segmentStatistics, keeping the existing car count.
  auto existing = stats_table_->SelectOne(stats_lookup_, params, &row_);
  if (!existing.ok()) {
    return existing.status();
  }
  const Value cars = existing.value() ? row_[4] : Value(int64_t{0});
  auto upsert = stats_table_->Upsert(
      stats_upsert_, {Value(xway), Value(dir), Value(seg), Value(lav_value),
                      cars, Value(minute)});
  if (!upsert.ok()) {
    return upsert.status();
  }

  Send(out_, Token(BuildRecord(out_layout_, xway, dir, seg, minute,
                               lav_value)));
  return Status::OK();
}

CarCountActor::CarCountActor(std::string name, db::Database* database)
    : Actor(std::move(name)), database_(database) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in", WindowSpec::Time(Seconds(60), Seconds(60))
                               .GroupBy({kFieldXway, kFieldDir, kFieldSeg})
                               .DeleteUsedEvents(true));
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(TokenType::Record(CarCountSchema()));
}

Status CarCountActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(stats_table_, database_->GetTable(kTableSegmentStats));
  CWF_ASSIGN_OR_RETURN(stats_lookup_, PrepareSegmentLookup(stats_table_));
  CWF_ASSIGN_OR_RETURN(stats_upsert_,
                       stats_table_->PrepareUpsert({"xway", "dir", "seg"}));
  CWF_ASSIGN_OR_RETURN(out_layout_, OutputLayout(out_, CarCountSchema()));
  return Status::OK();
}

Status CarCountActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() || w->empty()) {
    return Status::OK();
  }
  // Distinct cars: sort and dedup a buffer kept across firings.
  cars_.clear();
  int64_t minute = 0;
  for (const CWEvent& e : w->events) {
    const Record& rec = *e.token.AsRecord();
    cars_.push_back(car_.Get(rec).AsInt());
    minute = std::max(minute, time_.Get(rec).AsInt() / 60);
  }
  std::sort(cars_.begin(), cars_.end());
  const auto count = static_cast<int64_t>(
      std::unique(cars_.begin(), cars_.end()) - cars_.begin());
  const PositionReport r = PositionReport::FromToken(w->events[0].token);

  // Keep the existing LAV; refresh the car count of the (previous) minute.
  const Value key[] = {Value(r.xway), Value(r.dir), Value(r.seg)};
  auto existing = stats_table_->SelectOne(stats_lookup_, key, &row_);
  if (!existing.ok()) {
    return existing.status();
  }
  const Value lav = existing.value() ? row_[3] : Value(100.0);
  auto upsert = stats_table_->Upsert(
      stats_upsert_, {Value(r.xway), Value(r.dir), Value(r.seg), lav,
                      Value(count), Value(minute)});
  if (!upsert.ok()) {
    return upsert.status();
  }

  Send(out_, Token(BuildRecord(out_layout_, r.xway, r.dir, r.seg, minute,
                               count)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Toll calculation
// ---------------------------------------------------------------------------

TollCalculator::TollCalculator(std::string name, db::Database* database)
    : Actor(std::move(name)), database_(database) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in", WindowSpec::Tuples(2, 1).GroupBy({kFieldCar}));
  out_ = AddOutputPort("out");
  in_->set_required_schema(PositionReportType());
  out_->set_schema(TokenType::Record(TollSchema()));
}

Status TollCalculator::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(stats_table_, database_->GetTable(kTableSegmentStats));
  CWF_ASSIGN_OR_RETURN(stats_lookup_, PrepareSegmentLookup(stats_table_));
  CWF_ASSIGN_OR_RETURN(out_layout_, OutputLayout(out_, TollSchema()));
  CWF_ASSIGN_OR_RETURN(db::Table * accidents,
                       database_->GetTable(kTableAccidents));
  return scope_.Prepare(accidents);
}

Status TollCalculator::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value() || w->size() < 2) {
    return Status::OK();
  }
  const PositionReport prev = PositionReport::FromToken(w->events[0].token);
  const PositionReport curr = PositionReport::FromToken(w->events[1].token);
  if (prev.seg == curr.seg && prev.xway == curr.xway &&
      prev.dir == curr.dir) {
    return Status::OK();  // toll is initiated only on a segment switch
  }

  // The paper's toll SQL against segmentStatistics + accidentInSegment.
  const Value key[] = {Value(curr.xway), Value(curr.dir), Value(curr.seg)};
  auto found = stats_table_->SelectOne(stats_lookup_, key, &row_);
  if (!found.ok()) {
    return found.status();
  }
  double lav = 100.0;
  int64_t cars = 0;
  if (found.value()) {
    lav = row_[3].is_null() ? 100.0 : row_[3].AsDouble();
    cars = row_[4].is_null() ? 0 : row_[4].AsInt();
  }
  auto accident =
      scope_.InScope(curr.xway, curr.dir, curr.seg, curr.time - 60);
  if (!accident.ok()) {
    return accident.status();
  }
  const double toll = ComputeToll(lav, cars, accident.value());
  ++tolls_;

  Send(out_, Token(BuildRecord(out_layout_, curr.car, curr.time, curr.xway,
                               curr.dir, curr.seg, toll)));
  return Status::OK();
}

}  // namespace cwf::lrb

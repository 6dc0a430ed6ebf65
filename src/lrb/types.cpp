#include "lrb/types.h"

#include <sstream>

#include "core/wait_graph.h"

namespace cwf::lrb {

Token PositionReport::ToToken() const {
  auto rec = std::make_shared<Record>();
  rec->Reserve(8);
  rec->Set(kFieldTime, Value(time));
  rec->Set(kFieldCar, Value(car));
  rec->Set(kFieldSpeed, Value(speed));
  rec->Set(kFieldXway, Value(xway));
  rec->Set(kFieldLane, Value(lane));
  rec->Set(kFieldDir, Value(dir));
  rec->Set(kFieldSeg, Value(seg));
  rec->Set(kFieldPos, Value(pos));
  return Token(RecordPtr(std::move(rec)));
}

namespace {

// `name`'s value in a position report. `hint` is the field's position in
// the ToToken() layout: checked first, with a name scan only for records
// built in another field order. Stateless, so actors on concurrent threads
// may decode at once.
const Value& ReportField(const Record& rec, const char* name, size_t hint) {
  const int index = rec.IndexOf(name, hint);
  CWF_CHECK_MSG(index >= 0, "record " << rec.ToString() << " lacks field "
                                      << name << CurrentActorContext());
  return rec.ValueAt(static_cast<size_t>(index));
}

}  // namespace

PositionReport PositionReport::FromToken(const Token& token) {
  const RecordPtr& rec = token.AsRecord();
  CWF_CHECK(rec != nullptr);
  PositionReport r;
  r.time = ReportField(*rec, kFieldTime, 0).AsInt();
  r.car = ReportField(*rec, kFieldCar, 1).AsInt();
  r.speed = ReportField(*rec, kFieldSpeed, 2).AsDouble();
  r.xway = ReportField(*rec, kFieldXway, 3).AsInt();
  r.lane = ReportField(*rec, kFieldLane, 4).AsInt();
  r.dir = ReportField(*rec, kFieldDir, 5).AsInt();
  r.seg = ReportField(*rec, kFieldSeg, 6).AsInt();
  r.pos = ReportField(*rec, kFieldPos, 7).AsInt();
  return r;
}

RecordSchema PositionReportSchema() {
  RecordSchema s;
  s.Int(kFieldTime)
      .Int(kFieldCar)
      .Double(kFieldSpeed)
      .Int(kFieldXway)
      .Int(kFieldLane)
      .Int(kFieldDir)
      .Int(kFieldSeg)
      .Int(kFieldPos);
  return s;
}

TokenType PositionReportType() {
  return TokenType::Record(PositionReportSchema());
}

std::string PositionReport::ToString() const {
  std::ostringstream oss;
  oss << "PR(t=" << time << " car=" << car << " v=" << speed
      << " xway=" << xway << " lane=" << lane << " dir=" << dir
      << " seg=" << seg << " pos=" << pos << ")";
  return oss.str();
}

double ComputeToll(double lav, int64_t cars, bool accident_in_scope) {
  if (lav < kTollLavThreshold && cars > kTollCarsThreshold &&
      !accident_in_scope) {
    const double excess = static_cast<double>(cars - kTollCarsThreshold);
    return 2.0 * excess * excess;
  }
  return 0.0;
}

}  // namespace cwf::lrb

#include "lrb/types.h"

#include <sstream>

#include "core/wait_graph.h"

namespace cwf::lrb {

namespace {

// The layout of every record ToToken() builds, in field order. Held for the
// life of the program, so its address identifies position reports.
const RecordLayoutPtr& ReportLayout() {
  static const RecordLayoutPtr layout =
      RecordLayout::Make({kFieldTime, kFieldCar, kFieldSpeed, kFieldXway,
                          kFieldLane, kFieldDir, kFieldSeg, kFieldPos});
  return layout;
}

// `name`'s value in a position report whose fields are in another order.
const Value& ReportField(const Record& rec, const char* name) {
  const int index = rec.layout() != nullptr ? rec.layout()->IndexOf(name) : -1;
  CWF_CHECK_MSG(index >= 0, "record " << rec.ToString() << " lacks field "
                                      << name << CurrentActorContext());
  return rec.ValueAt(static_cast<size_t>(index));
}

}  // namespace

Token PositionReport::ToToken() const {
  return Token(BuildRecord(ReportLayout(), time, car, speed, xway, lane, dir,
                           seg, pos));
}

PositionReport PositionReport::FromToken(const Token& token) {
  const RecordPtr& rec = token.AsRecord();
  CWF_CHECK(rec != nullptr);
  PositionReport r;
  // Stateless, so actors on concurrent threads may decode at once.
  const RecordLayoutPtr& layout = rec->layout();
  if (layout == ReportLayout() ||
      (layout != nullptr && layout->names() == ReportLayout()->names())) {
    // Built by ToToken(), or parsed from a body in its field order: every
    // field sits at its ReportLayout() position.
    const std::vector<Value>& v = rec->values();
    r.time = v[0].AsInt();
    r.car = v[1].AsInt();
    r.speed = v[2].AsDouble();
    r.xway = v[3].AsInt();
    r.lane = v[4].AsInt();
    r.dir = v[5].AsInt();
    r.seg = v[6].AsInt();
    r.pos = v[7].AsInt();
    return r;
  }
  r.time = ReportField(*rec, kFieldTime).AsInt();
  r.car = ReportField(*rec, kFieldCar).AsInt();
  r.speed = ReportField(*rec, kFieldSpeed).AsDouble();
  r.xway = ReportField(*rec, kFieldXway).AsInt();
  r.lane = ReportField(*rec, kFieldLane).AsInt();
  r.dir = ReportField(*rec, kFieldDir).AsInt();
  r.seg = ReportField(*rec, kFieldSeg).AsInt();
  r.pos = ReportField(*rec, kFieldPos).AsInt();
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

#include "window/window_spec.h"

#include <algorithm>
#include <sstream>

namespace cwf {

const char* WindowUnitName(WindowUnit unit) {
  switch (unit) {
    case WindowUnit::kTuples:
      return "tuples";
    case WindowUnit::kTime:
      return "time";
    case WindowUnit::kWaves:
      return "waves";
  }
  return "?";
}

WindowSpec WindowSpec::SingleEvent() {
  WindowSpec spec;
  spec.unit = WindowUnit::kTuples;
  spec.size = 1;
  spec.step = 1;
  spec.delete_used_events = true;
  return spec;
}

WindowSpec WindowSpec::Tuples(int64_t size, int64_t step) {
  WindowSpec spec;
  spec.unit = WindowUnit::kTuples;
  spec.size = size;
  spec.step = step;
  return spec;
}

WindowSpec WindowSpec::Time(Duration size, Duration step) {
  WindowSpec spec;
  spec.unit = WindowUnit::kTime;
  spec.size = size;
  spec.step = step;
  return spec;
}

WindowSpec WindowSpec::Waves(int64_t size, int64_t step) {
  WindowSpec spec;
  spec.unit = WindowUnit::kWaves;
  spec.size = size;
  spec.step = step;
  return spec;
}

WindowSpec& WindowSpec::GroupBy(std::vector<std::string> fields) {
  group_by = std::move(fields);
  return *this;
}

WindowSpec& WindowSpec::DeleteUsedEvents(bool del) {
  delete_used_events = del;
  return *this;
}

WindowSpec& WindowSpec::FormationTimeout(Duration timeout) {
  formation_timeout = timeout;
  return *this;
}

ConsumptionMode WindowSpec::consumption_mode() const {
  if (delete_used_events) {
    return ConsumptionMode::kRecent;
  }
  return step < size ? ConsumptionMode::kContinuous
                     : ConsumptionMode::kUnrestricted;
}

bool WindowSpec::IsTrivial() const {
  return unit == WindowUnit::kTuples && size == 1 && step == 1 &&
         group_by.empty() && delete_used_events;
}

Status WindowSpec::Validate() const {
  if (size <= 0) {
    return Status::InvalidArgument("window size must be positive, got " +
                                   std::to_string(size));
  }
  if (step <= 0) {
    return Status::InvalidArgument("window step must be positive, got " +
                                   std::to_string(step));
  }
  if (unit != WindowUnit::kTime && formation_timeout > 0) {
    return Status::InvalidArgument(
        "formation_timeout only applies to time windows");
  }
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (group_by[i].empty()) {
      return Status::InvalidArgument("empty group-by field name");
    }
    // The key token is a record and holds each name once, so a repeated
    // field would make it disagree with the key the groups are found by.
    if (std::find(group_by.begin(), group_by.begin() + i, group_by[i]) !=
        group_by.begin() + i) {
      return Status::InvalidArgument("repeated group-by field '" +
                                     group_by[i] + "'");
    }
  }
  return Status::OK();
}

std::string WindowSpec::ToString() const {
  std::ostringstream oss;
  oss << "Window{unit=" << WindowUnitName(unit) << ", size=" << size
      << ", step=" << step;
  if (unit == WindowUnit::kTime) {
    oss << ", timeout=" << formation_timeout << "us";
  }
  if (!group_by.empty()) {
    oss << ", group_by=[";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) {
        oss << ",";
      }
      oss << group_by[i];
    }
    oss << "]";
  }
  oss << ", delete_used=" << (delete_used_events ? "true" : "false") << "}";
  return oss.str();
}

}  // namespace cwf

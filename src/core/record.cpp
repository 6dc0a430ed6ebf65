#include "core/record.h"

#include <functional>
#include <sstream>

#include "core/wait_graph.h"

namespace cwf {

int64_t Value::AsInt() const {
  CWF_CHECK_MSG(is_int(), "Value is not an int: " << ToString()
                                                  << CurrentActorContext());
  return std::get<int64_t>(v_);
}

double Value::AsDouble() const {
  if (is_int()) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  CWF_CHECK_MSG(is_double(), "Value is not numeric: " << ToString()
                                                      << CurrentActorContext());
  return std::get<double>(v_);
}

bool Value::AsBool() const {
  CWF_CHECK_MSG(is_bool(), "Value is not a bool: " << ToString()
                                                   << CurrentActorContext());
  return std::get<bool>(v_);
}

const std::string& Value::AsString() const {
  CWF_CHECK_MSG(is_string(), "Value is not a string: " << ToString()
                                                       << CurrentActorContext());
  return std::get<std::string>(v_);
}

bool Value::operator<(const Value& o) const {
  if (v_.index() != o.v_.index()) {
    return v_.index() < o.v_.index();
  }
  return v_ < o.v_;
}

bool Value::operator==(const Value& o) const { return v_ == o.v_; }

size_t Value::Hash() const {
  size_t h = v_.index() * 0x9E3779B97F4A7C15ULL;
  switch (v_.index()) {
    case 1:
      h ^= std::hash<int64_t>()(std::get<int64_t>(v_));
      break;
    case 2:
      h ^= std::hash<double>()(std::get<double>(v_));
      break;
    case 3:
      h ^= std::hash<bool>()(std::get<bool>(v_));
      break;
    case 4:
      h ^= std::hash<std::string>()(std::get<std::string>(v_));
      break;
    default:
      break;
  }
  return h;
}

std::string Value::ToString() const {
  std::ostringstream oss;
  switch (v_.index()) {
    case 0:
      oss << "null";
      break;
    case 1:
      oss << std::get<int64_t>(v_);
      break;
    case 2:
      oss << std::get<double>(v_);
      break;
    case 3:
      oss << (std::get<bool>(v_) ? "true" : "false");
      break;
    case 4:
      oss << '"' << std::get<std::string>(v_) << '"';
      break;
  }
  return oss.str();
}

Record& Record::Set(std::string name, Value value) {
  for (auto& [n, v] : fields_) {
    if (n == name) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(std::move(name), std::move(value));
  return *this;
}

bool Record::Has(const std::string& name) const {
  for (const auto& [n, v] : fields_) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

Result<Value> Record::Get(const std::string& name) const {
  for (const auto& [n, v] : fields_) {
    if (n == name) {
      return v;
    }
  }
  return Status::NotFound("record has no field '" + name + "'");
}

const Value& Record::ValueAt(size_t index) const {
  CWF_CHECK_MSG(index < fields_.size(),
                "record field index " << index << " out of range (size "
                                      << fields_.size() << ")"
                                      << CurrentActorContext());
  return fields_[index].second;
}

const std::string& Record::NameAt(size_t index) const {
  CWF_CHECK_MSG(index < fields_.size(),
                "record field index " << index << " out of range (size "
                                      << fields_.size() << ")"
                                      << CurrentActorContext());
  return fields_[index].first;
}

int Record::IndexOf(std::string_view name, size_t hint) const {
  if (hint < fields_.size() && fields_[hint].first == name) {
    return static_cast<int>(hint);
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Value Record::GetOr(const std::string& name, Value fallback) const {
  for (const auto& [n, v] : fields_) {
    if (n == name) {
      return v;
    }
  }
  return fallback;
}

std::string Record::ToString() const {
  std::ostringstream oss;
  oss << "{";
  bool first = true;
  for (const auto& [n, v] : fields_) {
    if (!first) {
      oss << ", ";
    }
    first = false;
    oss << n << "=" << v.ToString();
  }
  oss << "}";
  return oss.str();
}

}  // namespace cwf

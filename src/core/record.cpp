#include "core/record.h"

#include <cstdlib>
#include <functional>
#include <sstream>

#include "core/wait_graph.h"

namespace cwf {

void Value::KindMismatch(const char* kind) const {
  CWF_CHECK_MSG(false, "Value is not " << kind << ": " << ToString()
                                       << CurrentActorContext());
  std::abort();  // unreachable: the check above always fails
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

RecordLayoutPtr RecordLayout::Make(std::vector<std::string> names) {
  auto layout = std::make_shared<RecordLayout>(Key());
  layout->names_ = std::move(names);
  layout->RebuildSlots();
  for (size_t i = 0; i < layout->names_.size(); ++i) {
    CWF_CHECK_MSG(layout->IndexOf(layout->names_[i]) == static_cast<int>(i),
                  "record layout repeats field '" << layout->names_[i]
                                                  << "'");
  }
  return layout;
}

void RecordLayout::Extend(RecordLayoutPtr* layout, std::string name) {
  if (*layout == nullptr) {
    *layout = Make({std::move(name)});
    return;
  }
  CWF_CHECK_MSG((*layout)->IndexOf(name) < 0,
                "record layout already has field '" << name << "'");
  if (layout->use_count() == 1) {
    // Sole owner: nobody else can observe the change. Every layout is
    // created non-const (Make), so the cast is sound.
    const_cast<RecordLayout&>(**layout).Append(std::move(name));
    return;
  }
  auto grown = std::make_shared<RecordLayout>(Key());
  grown->names_ = (*layout)->names_;
  grown->Append(std::move(name));
  *layout = std::move(grown);
}

void RecordLayout::Append(std::string name) {
  names_.push_back(std::move(name));
  if (names_.size() * 2 > slots_.size()) {
    RebuildSlots();
  } else {
    InsertSlot(names_.size() - 1);
  }
}

void RecordLayout::RebuildSlots() {
  slots_.clear();
  if (names_.size() <= kLinearMax) {
    return;
  }
  size_t capacity = 32;
  while (capacity < names_.size() * 2) {
    capacity *= 2;
  }
  slots_.assign(capacity, 0);
  for (size_t i = 0; i < names_.size(); ++i) {
    InsertSlot(i);
  }
}

void RecordLayout::InsertSlot(size_t index) {
  const size_t mask = slots_.size() - 1;
  size_t pos = std::hash<std::string_view>()(names_[index]) & mask;
  while (slots_[pos] != 0) {
    pos = (pos + 1) & mask;
  }
  slots_[pos] = static_cast<uint32_t>(index + 1);
}

int RecordLayout::IndexOf(std::string_view name) const {
  if (slots_.empty()) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t pos = std::hash<std::string_view>()(name) & mask;
       slots_[pos] != 0; pos = (pos + 1) & mask) {
    const size_t index = slots_[pos] - 1;
    if (names_[index] == name) {
      return static_cast<int>(index);
    }
  }
  return -1;
}

Record::Record(RecordLayoutPtr layout, std::vector<Value> values)
    : layout_(std::move(layout)), values_(std::move(values)) {
  CWF_CHECK_MSG(values_.size() == (layout_ ? layout_->size() : 0),
                values_.size() << " values for a layout of "
                               << (layout_ ? layout_->size() : 0)
                               << " fields" << CurrentActorContext());
}

Record& Record::Set(std::string_view name, Value value) {
  const int index = IndexOf(name);
  if (index >= 0) {
    values_[static_cast<size_t>(index)] = std::move(value);
    return *this;
  }
  RecordLayout::Extend(&layout_, std::string(name));
  values_.push_back(std::move(value));
  return *this;
}

Result<Value> Record::Get(std::string_view name) const {
  const int index = IndexOf(name);
  if (index < 0) {
    return Status::NotFound("record has no field '" + std::string(name) +
                            "'");
  }
  return values_[static_cast<size_t>(index)];
}

Value Record::GetOr(std::string_view name, Value fallback) const {
  const int index = IndexOf(name);
  return index < 0 ? std::move(fallback) : values_[static_cast<size_t>(index)];
}

const Value& Record::ValueAt(size_t index) const {
  CWF_CHECK_MSG(index < values_.size(),
                "record field index " << index << " out of range (size "
                                      << values_.size() << ")"
                                      << CurrentActorContext());
  return values_[index];
}

const std::string& Record::NameAt(size_t index) const {
  CWF_CHECK_MSG(index < values_.size(),
                "record field index " << index << " out of range (size "
                                      << values_.size() << ")"
                                      << CurrentActorContext());
  return layout_->name(index);
}

int Record::IndexOf(std::string_view name, size_t hint) const {
  if (layout_ == nullptr) {
    return -1;
  }
  if (hint < layout_->size() && layout_->name(hint) == name) {
    return static_cast<int>(hint);
  }
  return layout_->IndexOf(name);
}

bool Record::operator==(const Record& o) const {
  if (values_ != o.values_) {
    return false;
  }
  if (layout_ == o.layout_) {
    return true;
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (layout_->name(i) != o.layout_->name(i)) {
      return false;
    }
  }
  return true;
}

std::string Record::ToString() const {
  std::ostringstream oss;
  oss << "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) {
      oss << ", ";
    }
    oss << layout_->name(i) << "=" << values_[i].ToString();
  }
  oss << "}";
  return oss.str();
}

void FieldPosition::Resolve(const RecordLayoutPtr& layout) {
  layout_ = layout;
  pos_ = layout_ != nullptr ? layout_->IndexOf(name_) : -1;
}

void FieldPosition::Missing(const Record& rec) const {
  CWF_CHECK_MSG(false, "record " << rec.ToString() << " lacks field " << name_
                                 << CurrentActorContext());
  std::abort();  // unreachable: the check above always fails
}

}  // namespace cwf

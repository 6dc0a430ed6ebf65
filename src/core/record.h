// Record tokens: named, typed tuples flowing through a workflow.
//
// Kepler propagates "tokens" between actors; CONFLuEnCE wraps them in
// timestamped events. Most stream tuples (e.g. Linear Road position reports)
// are records — ordered collections of named scalar fields. Records are
// immutable once built and shared by reference, so fan-out to many
// downstream receivers never copies payloads.

#ifndef CONFLUENCE_CORE_RECORD_H_
#define CONFLUENCE_CORE_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace cwf {

/// \brief A scalar field value: null, int64, double, bool or string.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t v) : v_(v) {}              // NOLINT
  Value(int v) : v_(int64_t{v}) {}         // NOLINT
  Value(double v) : v_(v) {}               // NOLINT
  Value(bool v) : v_(v) {}                 // NOLINT
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  /// \brief Integer content; CHECK-fails unless is_int().
  int64_t AsInt() const;
  /// \brief Floating content; accepts int too (widening).
  double AsDouble() const;
  bool AsBool() const;
  const std::string& AsString() const;

  /// \brief Total order across types (type tag first, then value); makes
  /// Values usable as map keys and group-by components.
  bool operator<(const Value& o) const;
  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// \brief Stable hash, consistent with operator==.
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, bool, std::string> v_;
};

/// \brief An immutable named tuple. Field lookup is linear, which beats a
/// hash map for the ≤16-field records that flow through stream workflows.
class Record {
 public:
  Record() = default;

  /// \brief Builder-style append; returns *this for chaining.
  Record& Set(std::string name, Value value);

  /// \brief Whether a field of this name exists.
  bool Has(const std::string& name) const;

  /// \brief Field value, or error if absent.
  Result<Value> Get(const std::string& name) const;

  /// \brief Field value, or `fallback` if absent.
  Value GetOr(const std::string& name, Value fallback) const;

  /// \brief Field value by position — O(1), no name comparison. Pair with
  /// RecordSchema::IndexOf (core/schema.h): resolve the name to an index
  /// once at schema resolution, then access by index on the hot path.
  /// CHECK-fails when `index` is out of range.
  const Value& ValueAt(size_t index) const;

  /// \brief Field name at `index`; CHECK-fails when out of range.
  const std::string& NameAt(size_t index) const;

  /// \brief Position of field `name`, or -1 when absent. Checks `hint`
  /// with one name comparison before falling back to the linear scan, so a
  /// caller that knows where the field usually sits pays O(1) and stays
  /// correct when a record of another layout arrives.
  int IndexOf(std::string_view name, size_t hint) const;

  /// \brief Reserve room for `n` fields ahead of a run of Set() calls.
  void Reserve(size_t n) { fields_.reserve(n); }

  /// \brief Field count.
  size_t size() const { return fields_.size(); }

  const std::vector<std::pair<std::string, Value>>& fields() const {
    return fields_;
  }

  bool operator==(const Record& o) const { return fields_ == o.fields_; }

  /// \brief "{a=1, b=2.5}".
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, Value>> fields_;
};

using RecordPtr = std::shared_ptr<const Record>;

/// \brief A field name plus the position it was last found at.
///
/// Find() confirms the cached position with `NameAt(pos) == name` and only
/// on a mismatch falls back to the name scan, refreshing the cache. Records
/// of one layout therefore pay one string comparison per lookup, and records
/// carrying the same fields in another order stay correct. The cache is
/// mutable state: keep one per operator or actor, never share one across
/// threads.
class FieldPosition {
 public:
  explicit FieldPosition(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// \brief The field's value in `rec`, or nullptr when it is absent.
  const Value* Find(const Record& rec) {
    const int index = rec.IndexOf(name_, pos_);
    if (index < 0) {
      return nullptr;
    }
    pos_ = static_cast<size_t>(index);
    return &rec.fields()[pos_].second;
  }

 private:
  std::string name_;
  size_t pos_ = 0;
};

/// \brief Build a shared record from (name, value) pairs.
template <typename... Pairs>
RecordPtr MakeRecord(Pairs&&... pairs) {
  auto rec = std::make_shared<Record>();
  rec->Reserve(sizeof...(Pairs));
  (rec->Set(pairs.first, pairs.second), ...);
  return rec;
}

}  // namespace cwf

#endif  // CONFLUENCE_CORE_RECORD_H_

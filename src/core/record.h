// Record tokens: named, typed tuples flowing through a workflow.
//
// Kepler propagates "tokens" between actors; CONFLuEnCE wraps them in
// timestamped events. Most stream tuples (e.g. Linear Road position reports)
// are records — ordered collections of named scalar fields. Records are
// immutable once built and shared by reference, so fan-out to many
// downstream receivers never copies payloads. A record's field names live
// in a RecordLayout shared by every record of its type; the record itself
// holds only the values.

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
  int64_t AsInt() const {
    if (const int64_t* v = std::get_if<int64_t>(&v_)) {
      return *v;
    }
    KindMismatch("an int");
  }
  /// \brief Floating content; accepts int too (widening).
  double AsDouble() const {
    if (const double* v = std::get_if<double>(&v_)) {
      return *v;
    }
    if (const int64_t* v = std::get_if<int64_t>(&v_)) {
      return static_cast<double>(*v);
    }
    KindMismatch("numeric");
  }
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
  /// CHECK-fails with "Value is not <kind>: <value>".
  [[noreturn]] void KindMismatch(const char* kind) const;

  std::variant<std::monostate, int64_t, double, bool, std::string> v_;
};

class RecordLayout;

/// \brief Shared, immutable handle to a record layout.
using RecordLayoutPtr = std::shared_ptr<const RecordLayout>;

/// \brief The field names of one record type, in order, with lookup by
/// name.
///
/// Every record points at a layout instead of carrying its own names, so
/// records of one type share one layout and a reader can recognise the type
/// by the layout's address. That identity is only meaningful while the
/// reader holds the layout: a cache keyed on a layout's address must keep a
/// RecordLayoutPtr to it (see FieldPosition), or a freed layout's address
/// could come back for a layout with another field order.
///
/// A layout is immutable once more than one owner holds it. Extend() grows
/// an unshared layout in place (a record or schema being built field by
/// field) and copies a shared one, so no holder ever sees a layout change.
class RecordLayout {
  // Only Make() and Extend() construct layouts (always non-const, so
  // Extend() may grow an unshared one in place).
  struct Key {
    explicit Key() = default;
  };

 public:
  /// \brief A layout of `names`, which must be distinct (CHECK).
  static RecordLayoutPtr Make(std::vector<std::string> names);

  /// \brief Append `name` (not yet in the layout) to `*layout`: in place
  /// when `*layout` is its only owner, otherwise on a copy. A null
  /// `*layout` (no fields) becomes a one-field layout.
  static void Extend(RecordLayoutPtr* layout, std::string name);

  explicit RecordLayout(Key) {}

  size_t size() const { return names_.size(); }
  const std::string& name(size_t index) const { return names_[index]; }
  const std::vector<std::string>& names() const { return names_; }

  /// \brief Position of `name`, or -1 when absent: a scan of at most
  /// kLinearMax names, a hash probe beyond that.
  int IndexOf(std::string_view name) const;

 private:
  static constexpr size_t kLinearMax = 8;

  void Append(std::string name);
  /// Size slots_ for names_ (none up to kLinearMax) and fill it.
  void RebuildSlots();
  void InsertSlot(size_t index);

  std::vector<std::string> names_;
  /// Open-addressing index over names_ (position + 1; 0 is empty; size a
  /// power of two, at most half full). Empty up to kLinearMax names.
  std::vector<uint32_t> slots_;
};

/// \brief An immutable named tuple: a shared layout plus one value per
/// field, in layout order.
///
/// Producers on the per-event path build from a layout resolved once
/// (BuildRecord), so a record costs its value array and a reference to the
/// layout, never a copy of the names. Set() is the ad-hoc builder for tests
/// and tools: it extends the record's own layout, so such a record shares
/// its layout with no other.
class Record {
 public:
  Record() = default;

  /// \brief A record of `layout` holding `values` in layout order;
  /// CHECK-fails unless there is one value per field.
  Record(RecordLayoutPtr layout, std::vector<Value> values);

  /// \brief Builder-style set by name: replaces the value of an existing
  /// field in place, otherwise appends the field. Returns *this.
  Record& Set(std::string_view name, Value value);

  /// \brief Whether a field of this name exists.
  bool Has(std::string_view name) const { return IndexOf(name) >= 0; }

  /// \brief Field value, or error if absent.
  Result<Value> Get(std::string_view name) const;

  /// \brief Field value, or `fallback` if absent.
  Value GetOr(std::string_view name, Value fallback) const;

  /// \brief Field value by position — O(1), no name comparison.
  /// CHECK-fails when `index` is out of range.
  const Value& ValueAt(size_t index) const;

  /// \brief Field name at `index`; CHECK-fails when out of range.
  const std::string& NameAt(size_t index) const;

  /// \brief Position of field `name`, or -1 when absent. A `hint` (a
  /// caller's last-known position) is checked first with one name
  /// comparison; then the layout is asked.
  int IndexOf(std::string_view name, size_t hint = SIZE_MAX) const;

  /// \brief Reserve room for `n` values ahead of a run of Set() calls.
  void Reserve(size_t n) { values_.reserve(n); }

  /// \brief Field count.
  size_t size() const { return values_.size(); }

  /// \brief The layout (null for a record without fields). Records of one
  /// producer share it; compare addresses to recognise the type.
  const RecordLayoutPtr& layout() const { return layout_; }

  /// \brief Every value, in layout order.
  const std::vector<Value>& values() const { return values_; }

  /// \brief Same field names in the same order, and equal values.
  bool operator==(const Record& o) const;

  /// \brief "{a=1, b=2.5}".
  std::string ToString() const;

 private:
  RecordLayoutPtr layout_;
  std::vector<Value> values_;  // one per layout_ field
};

using RecordPtr = std::shared_ptr<const Record>;

/// \brief A field name plus its position in the last layout it was read
/// from.
///
/// Find() compares the record's layout address with the cached one and,
/// when they match, indexes straight into the value array: records of one
/// layout pay one pointer comparison per read. Another layout (the same
/// fields in another order, or a field missing) is resolved by name once
/// and becomes the cached one. The cache holds a reference to its layout,
/// so that layout cannot be freed and its address reused by another while
/// cached. The cache is mutable state: keep one per operator or actor,
/// never share one across threads.
class FieldPosition {
 public:
  explicit FieldPosition(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// \brief The field's value in `rec`, or nullptr when it is absent.
  const Value* Find(const Record& rec) {
    if (rec.layout() != layout_) {
      Resolve(rec.layout());
    }
    return pos_ < 0 ? nullptr
                    : &rec.values()[static_cast<size_t>(pos_)];
  }

  /// \brief The field's value in `rec`; CHECK-fails when it is absent.
  const Value& Get(const Record& rec) {
    const Value* value = Find(rec);
    if (value == nullptr) {
      Missing(rec);
    }
    return *value;
  }

  /// \brief The field's value in `rec`, or `fallback` when it is absent.
  Value GetOr(const Record& rec, Value fallback) {
    const Value* value = Find(rec);
    return value != nullptr ? *value : std::move(fallback);
  }

 private:
  void Resolve(const RecordLayoutPtr& layout);
  [[noreturn]] void Missing(const Record& rec) const;

  std::string name_;
  /// The layout pos_ was resolved in (null: a record without fields).
  RecordLayoutPtr layout_;
  int pos_ = -1;  // -1: absent from layout_
};

/// \brief Build a shared record of `layout` from one value per field, in
/// layout order.
template <typename... Values>
RecordPtr BuildRecord(RecordLayoutPtr layout, Values&&... values) {
  std::vector<Value> row;
  row.reserve(sizeof...(Values));
  (row.emplace_back(std::forward<Values>(values)), ...);
  return std::make_shared<const Record>(std::move(layout), std::move(row));
}

/// \brief Build a shared record from (name, value) pairs (ad hoc: the
/// record gets a layout of its own).
template <typename... Pairs>
RecordPtr MakeRecord(Pairs&&... pairs) {
  auto rec = std::make_shared<Record>();
  rec->Reserve(sizeof...(Pairs));
  (rec->Set(pairs.first, pairs.second), ...);
  return rec;
}

}  // namespace cwf

#endif  // CONFLUENCE_CORE_RECORD_H_

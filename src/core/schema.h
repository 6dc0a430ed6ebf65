// The channel type system: what kinds of tokens (and record layouts) flow
// over a channel.
//
// Every Token is a runtime variant (nil/int/double/bool/string/record), so
// nothing stops a workflow from wiring a record producer into a port that
// reads `token.AsInt()` — the confusion only surfaces as a CHECK-fail deep
// inside the consuming actor, mid-wave. This header gives channels a static
// type: a TokenType is a set of admissible token kinds, plus a RecordSchema
// (named, ordered, scalar-typed fields) when records are admissible. Actors
// declare TokenTypes on their ports (OutputPort::set_schema,
// InputPort::set_required_schema); the schema pass
// (analysis/schema_pass.h) propagates them across channels and composite
// boundaries and reports CWF70xx diagnostics; Director::Initialize attaches
// the resolved per-channel types to receivers so a debug-build deposit
// check (CWF_SCHEMA_CHECK) can attribute a mistyped token to its channel
// and field instead of aborting in the consumer.
//
// The lattice is deliberately flat: record fields hold scalar Values only
// (core/record.h), so a field type is a *set of scalar kinds* and the
// token level adds nil and record. Unknown (no declaration, bottom) and
// Any (declared polymorphic, top) bracket the lattice; Join moves up it.

#ifndef CONFLUENCE_CORE_SCHEMA_H_
#define CONFLUENCE_CORE_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/record.h"
#include "core/token.h"

// CWF_SCHEMA_CHECK: the runtime deposit validation rides the debug-grade
// invariant gate (CMake option CONFLUENCE_DCHECKS) — release builds compile
// the per-token check out entirely.
#if defined(CWF_DCHECK_IS_ON) && CWF_DCHECK_IS_ON
#define CWF_SCHEMA_CHECK_IS_ON 1
#else
#define CWF_SCHEMA_CHECK_IS_ON 0
#endif

namespace cwf {

/// \brief A set of scalar kinds a record field (a Value) may hold.
class ScalarType {
 public:
  /// Empty set ("none"): the type of a field no execution can produce.
  ScalarType() = default;

  static ScalarType None() { return ScalarType(); }
  static ScalarType Null() { return ScalarType(kNull); }
  static ScalarType Int() { return ScalarType(kInt); }
  static ScalarType Double() { return ScalarType(kDouble); }
  static ScalarType Bool() { return ScalarType(kBool); }
  static ScalarType Str() { return ScalarType(kString); }
  static ScalarType Any() {
    return ScalarType(kNull | kInt | kDouble | kBool | kString);
  }

  bool empty() const { return mask_ == 0; }
  bool is_any() const { return *this == Any(); }

  ScalarType Union(ScalarType o) const { return ScalarType(mask_ | o.mask_); }

  /// \brief Whether every kind in this set is also in `o`.
  bool IsSubtypeOf(ScalarType o) const { return (mask_ & ~o.mask_) == 0; }

  /// \brief Whether the two sets share any kind (a value could satisfy
  /// both); disjoint sets are a provable type mismatch.
  bool Intersects(ScalarType o) const { return (mask_ & o.mask_) != 0; }

  /// \brief Whether `value`'s runtime kind is in this set.
  bool Accepts(const Value& value) const;

  /// \brief "int", "int|null", "any", "none".
  std::string ToString() const;

  bool operator==(const ScalarType& o) const { return mask_ == o.mask_; }
  bool operator!=(const ScalarType& o) const { return mask_ != o.mask_; }

 private:
  enum : uint8_t {
    kNull = 1u << 0,
    kInt = 1u << 1,
    kDouble = 1u << 2,
    kBool = 1u << 3,
    kString = 1u << 4,
  };

  explicit ScalarType(uint8_t mask) : mask_(mask) {}

  uint8_t mask_ = 0;
};

/// \brief One declared record field: name, admissible scalar kinds, and
/// whether every record flowing on the channel must carry it (joins of
/// divergent branches demote one-sided fields to optional).
struct FieldSpec {
  std::string name;
  ScalarType type = ScalarType::Any();
  bool required = true;

  bool operator==(const FieldSpec& o) const {
    return name == o.name && type == o.type && required == o.required;
  }
};

/// \brief An ordered record layout with field types.
///
/// The schema owns the RecordLayout of its field names, grown as fields are
/// declared. A producer takes layout() once (at Initialize) and builds every
/// record of its port from it (BuildRecord), so all of them share that
/// layout and readers recognise it by address (FieldPosition). Name lookups
/// (IndexOf/Find) go through the layout.
class RecordSchema {
 public:
  RecordSchema() = default;

  /// Builder-style field declarations; return *this for chaining.
  RecordSchema& Int(std::string name) {
    return Field(std::move(name), ScalarType::Int());
  }
  RecordSchema& Double(std::string name) {
    return Field(std::move(name), ScalarType::Double());
  }
  RecordSchema& Bool(std::string name) {
    return Field(std::move(name), ScalarType::Bool());
  }
  RecordSchema& Str(std::string name) {
    return Field(std::move(name), ScalarType::Str());
  }
  RecordSchema& Field(std::string name, ScalarType type, bool required = true);

  const std::vector<FieldSpec>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }

  /// \brief Position of `name` in the layout, or -1 when absent.
  int IndexOf(std::string_view name) const {
    return layout_ != nullptr ? layout_->IndexOf(name) : -1;
  }

  /// \brief The field spec for `name`, or nullptr.
  const FieldSpec* Find(std::string_view name) const;

  /// \brief The field names as a shared layout (null while no field is
  /// declared). Declaring a field after the layout was handed out gives
  /// this schema a new layout; holders keep the old one unchanged.
  const RecordLayoutPtr& layout() const { return layout_; }

  /// \brief "{time:int, speed:double, tag:string?}" (? marks optional).
  std::string ToString() const;

  /// \brief Least upper bound of two layouts: common fields keep the union
  /// of their scalar kinds (required only when required on both sides);
  /// one-sided fields become optional. Field order: `a`'s fields first,
  /// then `b`'s extras.
  static RecordSchema JoinOf(const RecordSchema& a, const RecordSchema& b);

  bool operator==(const RecordSchema& o) const { return fields_ == o.fields_; }
  bool operator!=(const RecordSchema& o) const { return !(*this == o); }

 private:
  std::vector<FieldSpec> fields_;
  RecordLayoutPtr layout_;  // fields_' names, in order
};

using RecordSchemaPtr = std::shared_ptr<const RecordSchema>;

/// \brief The static type of a channel (or port): which token kinds may
/// flow, and the record layout when records are among them.
///
/// Unknown is the bottom of the lattice — "nothing declared, nothing
/// inferred"; Any is the top — "deliberately polymorphic, every token
/// admissible". Between them a TokenType is a non-empty set drawn from
/// {nil, int, double, bool, string, record}.
class TokenType {
 public:
  /// Unknown (bottom).
  TokenType() = default;

  static TokenType Unknown() { return TokenType(); }
  static TokenType Any();
  static TokenType Nil() { return TokenType(kNil, nullptr); }
  static TokenType Int() { return TokenType(kInt, nullptr); }
  static TokenType Double() { return TokenType(kDouble, nullptr); }
  static TokenType Bool() { return TokenType(kBool, nullptr); }
  static TokenType Str() { return TokenType(kString, nullptr); }

  /// \brief A record type with the given layout.
  static TokenType Record(RecordSchema schema);
  static TokenType RecordOf(RecordSchemaPtr schema);

  /// \brief Widen this type to also admit nil (control tokens).
  TokenType OrNil() const;

  bool is_unknown() const { return mask_ == 0; }
  bool is_any() const;

  bool allows_nil() const { return (mask_ & kNil) != 0; }
  bool allows_record() const { return (mask_ & kRecord) != 0; }
  bool allows_scalar_data() const {
    return (mask_ & (kInt | kDouble | kBool | kString)) != 0;
  }
  /// \brief Whether only nil tokens are admissible (a pure control
  /// channel).
  bool is_nil_only() const { return mask_ == kNil; }

  /// \brief The record layout; nullptr unless a record kind with a known
  /// layout is admissible (an `Any` type admits records of any layout).
  const RecordSchemaPtr& record_schema() const { return record_; }

  /// \brief The admissible scalar kinds (nil and record excluded).
  ScalarType scalars() const;

  /// \brief Least upper bound.
  TokenType Join(const TokenType& o) const;

  /// \brief Whether every token this type admits is admitted by `o`
  /// (record layouts: every field `o` requires must be present, required
  /// and type-compatible here). Unknown is a subtype of nothing but
  /// Unknown/Any; everything is a subtype of Any.
  bool IsSubtypeOf(const TokenType& o) const;

  /// \brief Validate one runtime token against this type. On mismatch the
  /// status names the offending kind or record field — the payload of the
  /// CWF7008 runtime diagnostic. Unknown and Any accept everything.
  Status CheckToken(const Token& token) const;

  /// \brief "record{time:int, speed:double}", "int|nil", "any", "unknown".
  std::string ToString() const;

  bool operator==(const TokenType& o) const;
  bool operator!=(const TokenType& o) const { return !(*this == o); }

 private:
  enum : uint8_t {
    kNil = 1u << 0,
    kInt = 1u << 1,
    kDouble = 1u << 2,
    kBool = 1u << 3,
    kString = 1u << 4,
    kRecord = 1u << 5,
  };

  TokenType(uint8_t mask, RecordSchemaPtr record)
      : mask_(mask), record_(std::move(record)) {}

  uint8_t mask_ = 0;  // 0 = Unknown
  RecordSchemaPtr record_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_SCHEMA_H_

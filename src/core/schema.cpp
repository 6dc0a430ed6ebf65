#include "core/schema.h"

#include <sstream>

#include "common/check.h"

namespace cwf {

bool ScalarType::Accepts(const Value& value) const {
  if (value.is_null()) return (mask_ & kNull) != 0;
  if (value.is_int()) return (mask_ & kInt) != 0;
  if (value.is_double()) return (mask_ & kDouble) != 0;
  if (value.is_bool()) return (mask_ & kBool) != 0;
  return (mask_ & kString) != 0;
}

std::string ScalarType::ToString() const {
  if (empty()) return "none";
  if (is_any()) return "any";
  std::ostringstream out;
  const char* sep = "";
  const struct {
    uint8_t bit;
    const char* name;
  } kinds[] = {{kInt, "int"},
               {kDouble, "double"},
               {kBool, "bool"},
               {kString, "string"},
               {kNull, "null"}};
  for (const auto& k : kinds) {
    if (mask_ & k.bit) {
      out << sep << k.name;
      sep = "|";
    }
  }
  return out.str();
}

RecordSchema& RecordSchema::Field(std::string name, ScalarType type,
                                  bool required) {
  const int index = IndexOf(name);
  if (index >= 0) {
    // Re-declaring a field refines it in place rather than duplicating the
    // name in the layout.
    fields_[static_cast<size_t>(index)].type = type;
    fields_[static_cast<size_t>(index)].required = required;
    return *this;
  }
  RecordLayout::Extend(&layout_, name);
  fields_.push_back(FieldSpec{std::move(name), type, required});
  return *this;
}

const FieldSpec* RecordSchema::Find(std::string_view name) const {
  int idx = IndexOf(name);
  return idx < 0 ? nullptr : &fields_[static_cast<size_t>(idx)];
}

std::string RecordSchema::ToString() const {
  std::ostringstream out;
  out << "{";
  const char* sep = "";
  for (const FieldSpec& f : fields_) {
    out << sep << f.name << ":" << f.type.ToString() << (f.required ? "" : "?");
    sep = ", ";
  }
  out << "}";
  return out.str();
}

RecordSchema RecordSchema::JoinOf(const RecordSchema& a, const RecordSchema& b) {
  RecordSchema joined;
  for (const FieldSpec& fa : a.fields_) {
    const FieldSpec* fb = b.Find(fa.name);
    if (fb == nullptr) {
      joined.Field(fa.name, fa.type, /*required=*/false);
    } else {
      joined.Field(fa.name, fa.type.Union(fb->type),
                   fa.required && fb->required);
    }
  }
  for (const FieldSpec& fb : b.fields_) {
    if (a.Find(fb.name) == nullptr) {
      joined.Field(fb.name, fb.type, /*required=*/false);
    }
  }
  return joined;
}

TokenType TokenType::Any() {
  return TokenType(kNil | kInt | kDouble | kBool | kString | kRecord, nullptr);
}

TokenType TokenType::Record(RecordSchema schema) {
  return RecordOf(std::make_shared<const RecordSchema>(std::move(schema)));
}

TokenType TokenType::RecordOf(RecordSchemaPtr schema) {
  return TokenType(kRecord, std::move(schema));
}

TokenType TokenType::OrNil() const {
  if (is_unknown()) return *this;
  return TokenType(static_cast<uint8_t>(mask_ | kNil), record_);
}

bool TokenType::is_any() const {
  return mask_ == (kNil | kInt | kDouble | kBool | kString | kRecord) &&
         record_ == nullptr;
}

ScalarType TokenType::scalars() const {
  ScalarType s = ScalarType::None();
  if (mask_ & kInt) s = s.Union(ScalarType::Int());
  if (mask_ & kDouble) s = s.Union(ScalarType::Double());
  if (mask_ & kBool) s = s.Union(ScalarType::Bool());
  if (mask_ & kString) s = s.Union(ScalarType::Str());
  return s;
}

TokenType TokenType::Join(const TokenType& o) const {
  if (is_unknown()) return o;
  if (o.is_unknown()) return *this;
  if (is_any() || o.is_any()) return Any();
  RecordSchemaPtr record;
  if (allows_record() && o.allows_record()) {
    if (record_ != nullptr && o.record_ != nullptr) {
      record = std::make_shared<const RecordSchema>(
          RecordSchema::JoinOf(*record_, *o.record_));
    }
    // One side with an unconstrained record layout widens the join's layout
    // to unconstrained (nullptr).
  } else {
    record = allows_record() ? record_ : o.record_;
  }
  return TokenType(static_cast<uint8_t>(mask_ | o.mask_), std::move(record));
}

bool TokenType::IsSubtypeOf(const TokenType& o) const {
  if (o.is_any() || is_unknown() || o.is_unknown()) return true;
  if (is_any()) return false;
  if ((mask_ & ~o.mask_) != 0) return false;
  if (allows_record() && o.allows_record() && o.record_ != nullptr) {
    if (record_ == nullptr) return false;  // unconstrained into constrained
    for (const FieldSpec& need : o.record_->fields()) {
      const FieldSpec* have = record_->Find(need.name);
      if (have == nullptr || !have->type.IsSubtypeOf(need.type)) return false;
      if (need.required && !have->required) return false;
    }
  }
  return true;
}

Status TokenType::CheckToken(const Token& token) const {
  if (is_unknown() || is_any()) return Status::OK();
  const auto kind_error = [&](const char* kind) {
    return Status::FailedPrecondition("token of kind " + std::string(kind) +
                                      " where " + ToString() + " expected");
  };
  if (token.is_nil()) {
    return allows_nil() ? Status::OK() : kind_error("nil");
  }
  if (token.is_int()) {
    return (mask_ & kInt) != 0 ? Status::OK() : kind_error("int");
  }
  if (token.is_double()) {
    return (mask_ & kDouble) != 0 ? Status::OK() : kind_error("double");
  }
  if (token.is_bool()) {
    return (mask_ & kBool) != 0 ? Status::OK() : kind_error("bool");
  }
  if (token.is_string()) {
    return (mask_ & kString) != 0 ? Status::OK() : kind_error("string");
  }
  CWF_ASSERT(token.is_record());
  if (!allows_record()) return kind_error("record");
  if (record_ == nullptr) return Status::OK();
  const RecordPtr& rec = token.AsRecord();
  // A record built from this schema's own layout holds field i at i.
  const bool same_layout = rec->layout() == record_->layout();
  for (size_t i = 0; i < record_->size(); ++i) {
    const FieldSpec& spec = record_->fields()[i];
    const int index = same_layout ? static_cast<int>(i)
                                  : rec->IndexOf(spec.name);
    if (index < 0) {
      if (!spec.required) continue;
      return Status::FailedPrecondition("record missing required field '" +
                                        spec.name + "' (schema " +
                                        record_->ToString() + ", record " +
                                        rec->ToString() + ")");
    }
    const Value& got = rec->ValueAt(static_cast<size_t>(index));
    if (!spec.type.Accepts(got)) {
      return Status::FailedPrecondition(
          "record field '" + spec.name + "' = " + got.ToString() +
          " violates declared type " + spec.type.ToString() + " (schema " +
          record_->ToString() + ")");
    }
  }
  return Status::OK();
}

std::string TokenType::ToString() const {
  if (is_unknown()) return "unknown";
  if (is_any()) return "any";
  std::ostringstream out;
  const char* sep = "";
  ScalarType s = scalars();
  if (!s.empty()) {
    out << s.ToString();
    sep = "|";
  }
  if (allows_record()) {
    out << sep << "record" << (record_ != nullptr ? record_->ToString() : "");
    sep = "|";
  }
  if (allows_nil()) out << sep << "nil";
  return out.str();
}

bool TokenType::operator==(const TokenType& o) const {
  if (mask_ != o.mask_) return false;
  if ((record_ == nullptr) != (o.record_ == nullptr)) return false;
  return record_ == nullptr || *record_ == *o.record_;
}

}  // namespace cwf

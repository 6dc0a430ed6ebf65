#include "db/schema.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace cwf::db {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kBool:
      return "BOOL";
    case ColumnType::kString:
      return "STRING";
  }
  return "?";
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return i;
    }
  }
  return Status::NotFound("no column '" + name + "' in schema " + ToString());
}

Result<std::vector<size_t>> Schema::ColumnIndexes(
    const std::vector<std::string>& names) const {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    CWF_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
    out.push_back(idx);
  }
  return out;
}

bool Schema::TypeMatches(size_t i, const Value& value) const {
  if (value.is_null()) {
    return true;
  }
  switch (columns_[i].type) {
    case ColumnType::kInt64:
      return value.is_int();
    case ColumnType::kDouble:
      return value.is_double() || value.is_int();
    case ColumnType::kBool:
      return value.is_bool();
    case ColumnType::kString:
      return value.is_string();
  }
  return false;
}

Status Schema::CheckRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeMatches(i, row[i])) {
      return Status::InvalidArgument("value " + row[i].ToString() +
                                     " does not fit column '" +
                                     columns_[i].name + "' of type " +
                                     ColumnTypeName(columns_[i].type));
    }
  }
  return Status::OK();
}

void Schema::Widen(Row* row) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != ColumnType::kDouble) {
      continue;
    }
    Value& cell = (*row)[i];
    if (cell.is_int()) {
      cell = Value(static_cast<double>(cell.AsInt()));
    } else if (cell.is_double() && std::isnan(cell.AsDouble())) {
      cell = Value(std::numeric_limits<double>::quiet_NaN());
    }
  }
}

const Value* Schema::Coerce(size_t i, const Value& value,
                            Value* scratch) const {
  constexpr double kTwo63 = 9223372036854775808.0;
  switch (columns_[i].type) {
    case ColumnType::kInt64:
      if (value.is_int()) {
        return &value;
      }
      if (value.is_double()) {
        const double d = value.AsDouble();
        if (d >= -kTwo63 && d < kTwo63 && std::trunc(d) == d) {
          *scratch = Value(static_cast<int64_t>(d));
          return scratch;
        }
      }
      return nullptr;
    case ColumnType::kDouble:
      if (value.is_double()) {
        return std::isnan(value.AsDouble()) ? nullptr : &value;
      }
      if (value.is_int()) {
        const int64_t n = value.AsInt();
        const auto d = static_cast<double>(n);
        // Exact iff the double converts back to n; 2^63 does not fit.
        if (d < kTwo63 && static_cast<int64_t>(d) == n) {
          *scratch = Value(d);
          return scratch;
        }
      }
      return nullptr;
    case ColumnType::kBool:
      return value.is_bool() ? &value : nullptr;
    case ColumnType::kString:
      return value.is_string() ? &value : nullptr;
  }
  return nullptr;
}

std::string Schema::ToString() const {
  std::ostringstream oss;
  oss << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      oss << ", ";
    }
    oss << columns_[i].name << " " << ColumnTypeName(columns_[i].type);
  }
  oss << ")";
  return oss.str();
}

}  // namespace cwf::db

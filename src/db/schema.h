// Table schemas for the embedded relational store.

#ifndef CONFLUENCE_DB_SCHEMA_H_
#define CONFLUENCE_DB_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/value.h"

namespace cwf::db {

/// \brief Column data types.
enum class ColumnType { kInt64, kDouble, kBool, kString };

const char* ColumnTypeName(ColumnType type);

/// \brief One column: a name and a type. Nullable by default.
struct Column {
  std::string name;
  ColumnType type;
};

/// \brief Ordered column list with name lookup and row type-checking.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// \brief Index of the column named `name`, or error.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// \brief Resolve several column names at once.
  Result<std::vector<size_t>> ColumnIndexes(
      const std::vector<std::string>& names) const;

  /// \brief Whether `value` may be stored in column `i` (nulls always may).
  bool TypeMatches(size_t i, const Value& value) const;

  /// \brief Validate a full row against arity and column types.
  Status CheckRow(const Row& row) const;

  /// \brief Bring a checked row to stored form: an int cell of a kDouble
  /// column becomes a double, and a NaN the canonical quiet NaN. Every
  /// column then holds cells of its own type (or null), so equal keys are
  /// equal Values and an index finds what a scan finds.
  void Widen(Row* row) const;

  /// \brief `value` as a cell of column `i`'s type, for an index probe:
  /// `&value` when it already has that type, `scratch` holding the
  /// converted value for an int/double that converts exactly, and nullptr
  /// when no cell of the column can equal it (null, NaN, a fractional or
  /// out-of-range double on a kInt64 column, an int with no exact double
  /// on a kDouble column, or another type).
  const Value* Coerce(size_t i, const Value& value, Value* scratch) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_SCHEMA_H_

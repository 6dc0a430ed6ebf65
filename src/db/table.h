// An in-memory table with hash indexes.
//
// Feature set is scoped to what stream workflows need from their relational
// side-store: typed rows, point/predicate selects, upserts keyed on a column
// subset, deletes, aggregates, and secondary hash indexes.
//
// Every query runs as a prepared statement. Table::Prepare compiles a
// predicate once: it resolves column names, picks the first index whose
// columns the predicate's top-level equalities all pin, and compiles what
// is left into a residual Filter. Executing the PreparedQuery with a span of
// parameter values coerces the key parameters to their columns' types,
// walks the index bucket in place (or scans every live row when no index
// applies) and applies the residual: it builds no predicate, copies no
// string and allocates no key or row-id vector. The predicate-taking
// methods (Select, SelectOne, Aggregate, Update, Delete, Upsert) prepare a
// one-shot statement and run it, so there is one execution path.
//
// All operations are guarded by a per-table mutex so thread-based (PNCWF)
// workflows can share the store. A PreparedQuery is immutable; any number of
// threads may execute it concurrently.

#ifndef CONFLUENCE_DB_TABLE_H_
#define CONFLUENCE_DB_TABLE_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/lock_registry.h"
#include "db/hash_index.h"
#include "db/query.h"
#include "db/schema.h"

namespace cwf::db {

class Table;

/// \brief A predicate compiled against one table (Table::Prepare). Execute
/// it through the Table methods that take one. It stays valid while the
/// table lives; an index created after preparing is not used by it.
class PreparedQuery {
 public:
  /// \brief An unprepared placeholder; executing it fails.
  PreparedQuery() = default;

  /// \brief Values an execution must supply (one more than the highest
  /// Param slot).
  size_t param_count() const { return param_count_; }

  /// \brief Whether executions probe an index (else they scan).
  bool uses_index() const { return index_ >= 0; }

 private:
  friend class Table;

  /// One indexed column's probe value: a parameter slot, or a constant
  /// already coerced to the column's type.
  struct KeyPart {
    int64_t param = -1;
    Value constant;
  };

  const Table* table_ = nullptr;
  int index_ = -1;
  std::vector<KeyPart> key_;
  Filter residual_;
  size_t param_count_ = 0;
  /// A constant key part that no cell of its column can equal.
  bool never_matches_ = false;
};

/// \brief A keyed upsert compiled against one table (Table::PrepareUpsert).
class PreparedUpsert {
 public:
  PreparedUpsert() = default;

 private:
  friend class Table;

  const Table* table_ = nullptr;
  std::vector<size_t> key_columns_;
  /// An index whose columns are all key columns, or -1.
  int index_ = -1;
};

/// \brief A mutable, indexed, in-memory relation.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// \brief Build a hash index over `columns`. `unique` enforces key
  /// uniqueness on insert/update. Must be created before rows exist or is
  /// backfilled from current rows.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& columns,
                     bool unique = false);

  /// \brief Append a row. Fails on type mismatch or unique-index violation.
  /// Int cells of kDouble columns are stored as doubles (Schema::Widen).
  Result<RowId> Insert(Row row);

  // -- Prepared statements ---------------------------------------------

  /// \brief Compile `predicate` against this table. Fails on an unknown
  /// column.
  Result<PreparedQuery> Prepare(const PredicatePtr& predicate) const;

  /// \brief Compile an upsert keyed on `key_columns`.
  Result<PreparedUpsert> PrepareUpsert(
      const std::vector<std::string>& key_columns) const;

  /// \brief Number of matching rows. `params` supplies the Param slots.
  Result<size_t> Count(const PreparedQuery& query,
                       std::span<const Value> params = {}) const;

  /// \brief COUNT/SUM/AVG/MIN/MAX of column `column` (an index into the
  /// schema) over the matching rows, visited in row-id order. COUNT counts
  /// rows; the others skip null cells, need a numeric column, and yield
  /// null when no non-null cell matched.
  Result<Value> Aggregate(AggKind kind, size_t column,
                          const PreparedQuery& query,
                          std::span<const Value> params = {}) const;

  /// \brief Copy the first matching row (lowest row id) into `*out`, which
  /// keeps its capacity across calls; returns whether a row matched.
  Result<bool> SelectOne(const PreparedQuery& query,
                         std::span<const Value> params, Row* out) const;

  /// \brief All matching rows (copied out), in row-id order.
  Result<std::vector<Row>> Select(const PreparedQuery& query,
                                  std::span<const Value> params = {}) const;

  /// \brief Apply `mutator` to every matching row; reindexes mutated rows.
  /// Returns the number of rows updated.
  Result<size_t> Update(const PreparedQuery& query,
                        std::span<const Value> params,
                        const std::function<void(Row*)>& mutator);

  /// \brief Remove matching rows; returns how many.
  Result<size_t> Delete(const PreparedQuery& query,
                        std::span<const Value> params = {});

  /// \brief Insert `row`, or replace the row (lowest row id) whose key
  /// columns equal its cells. Returns true if a row was replaced. A null
  /// key cell equals nothing, so such a row is always inserted.
  Result<bool> Upsert(const PreparedUpsert& upsert, Row row);

  // -- One-shot forms: prepare, then execute without parameters ---------

  Result<bool> Upsert(const std::vector<std::string>& key_columns, Row row);
  Result<size_t> Update(const PredicatePtr& predicate,
                        const std::function<void(Row*)>& mutator);
  Result<size_t> Delete(const PredicatePtr& predicate);
  Result<std::vector<Row>> Select(const PredicatePtr& predicate) const;
  Result<std::optional<Row>> SelectOne(const PredicatePtr& predicate) const;
  /// \brief For kCount, `column` may be empty (COUNT(*)).
  Result<Value> Aggregate(AggKind kind, const std::string& column,
                          const PredicatePtr& predicate) const;

  /// \brief Live row count.
  size_t RowCount() const;

  /// \brief Remove all rows (indexes retained).
  void Truncate();

  /// \brief Access-path statistics: executions that probed an index, and
  /// executions that scanned every row.
  uint64_t index_lookups() const {
    ScopedLock lock(mutex_);
    return index_lookups_;
  }
  uint64_t full_scans() const {
    ScopedLock lock(mutex_);
    return full_scans_;
  }

 private:
  void IndexRow(RowId id, const Row& row) CWF_REQUIRES(mutex_);
  void UnindexRow(RowId id, const Row& row) CWF_REQUIRES(mutex_);
  /// Move row `id` from `old_row`'s keys to `new_row`'s where they differ.
  void ReindexRow(RowId id, const Row& old_row, const Row& new_row)
      CWF_REQUIRES(mutex_);
  Status CheckUnique(const Row& row, std::optional<RowId> ignore) const
      CWF_REQUIRES(mutex_);

  /// Check, widen and append a row; caller holds the lock.
  Result<RowId> InsertLocked(Row row) CWF_REQUIRES(mutex_);

  /// Fail unless `query` was prepared on this table and `params` covers
  /// its slots.
  Status CheckExecutable(const PreparedQuery& query,
                         std::span<const Value> params) const;

  /// Call fn(id, row) for each match in row-id order until it returns
  /// false. The one execution path of every query.
  template <typename Fn>
  void ForEachMatch(const PreparedQuery& query, std::span<const Value> params,
                    Fn&& fn) const CWF_REQUIRES(mutex_);

  /// Ids of the matching rows (for the mutating statements).
  std::vector<RowId> MatchingIds(const PreparedQuery& query,
                                 std::span<const Value> params) const
      CWF_REQUIRES(mutex_);

  std::string name_;
  Schema schema_;
  std::vector<std::optional<Row>> rows_ CWF_GUARDED_BY(mutex_);
  std::vector<RowId> free_list_ CWF_GUARDED_BY(mutex_);
  std::vector<HashIndex> indexes_ CWF_GUARDED_BY(mutex_);
  /// A probe's key values: pointers to parameters or constants, or to
  /// probe_values_ when a parameter needed a type conversion. Sized to the
  /// widest index.
  mutable std::vector<const Value*> probe_key_ CWF_GUARDED_BY(mutex_);
  mutable std::vector<Value> probe_values_ CWF_GUARDED_BY(mutex_);
  size_t live_rows_ CWF_GUARDED_BY(mutex_) = 0;
  mutable uint64_t index_lookups_ CWF_GUARDED_BY(mutex_) = 0;
  mutable uint64_t full_scans_ CWF_GUARDED_BY(mutex_) = 0;
  mutable OrderedMutex mutex_{"db::Table::mutex"};
};

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_TABLE_H_

#include "db/table.h"

#include <algorithm>

namespace cwf::db {
namespace {

/// Append the conjuncts of `predicate` to `out`: nested ANDs are flattened
/// in order; any other node (or a null child) is one conjunct.
void FlattenConjunction(const Predicate& predicate,
                        std::vector<const Predicate*>* out) {
  if (predicate.kind() != Predicate::Kind::kAnd) {
    out->push_back(&predicate);
    return;
  }
  for (const PredicatePtr& child : predicate.children()) {
    if (child == nullptr) {
      out->push_back(nullptr);
    } else {
      FlattenConjunction(*child, out);
    }
  }
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& columns,
                          bool unique) {
  ScopedLock lock(mutex_);
  for (const HashIndex& index : indexes_) {
    if (index.name() == index_name) {
      return Status::AlreadyExists("index '" + index_name + "' exists on " +
                                   name_);
    }
  }
  CWF_ASSIGN_OR_RETURN(std::vector<size_t> column_idx,
                       schema_.ColumnIndexes(columns));
  HashIndex index(index_name, std::move(column_idx), unique);
  // Backfill from live rows.
  for (RowId id = 0; id < rows_.size(); ++id) {
    if (!rows_[id].has_value()) {
      continue;
    }
    if (unique && index.FindRow(*rows_[id]) != nullptr) {
      return Status::FailedPrecondition(
          "cannot create unique index '" + index_name +
          "': duplicate keys already present");
    }
    index.Add(id, *rows_[id]);
  }
  indexes_.push_back(std::move(index));
  const size_t width = std::max(probe_key_.size(), columns.size());
  probe_key_.resize(width);
  probe_values_.resize(width);
  return Status::OK();
}

void Table::IndexRow(RowId id, const Row& row) {
  for (HashIndex& index : indexes_) {
    index.Add(id, row);
  }
}

void Table::UnindexRow(RowId id, const Row& row) {
  for (HashIndex& index : indexes_) {
    index.Remove(id, row);
  }
}

void Table::ReindexRow(RowId id, const Row& old_row, const Row& new_row) {
  for (HashIndex& index : indexes_) {
    if (!index.SameKey(old_row, new_row)) {
      index.Remove(id, old_row);
      index.Add(id, new_row);
    }
  }
}

Status Table::CheckUnique(const Row& row, std::optional<RowId> ignore) const {
  for (const HashIndex& index : indexes_) {
    if (!index.unique()) {
      continue;
    }
    const std::vector<RowId>* bucket = index.FindRow(row);
    if (bucket == nullptr) {
      continue;
    }
    for (RowId id : *bucket) {
      if (!ignore.has_value() || id != *ignore) {
        return Status::AlreadyExists("unique index '" + index.name() +
                                     "' violated on table " + name_);
      }
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(schema_.CheckRow(row));
  schema_.Widen(&row);
  return InsertLocked(std::move(row));
}

Result<RowId> Table::InsertLocked(Row row) {
  CWF_RETURN_NOT_OK(CheckUnique(row, std::nullopt));
  RowId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    rows_[id] = std::move(row);
  } else {
    id = rows_.size();
    rows_.push_back(std::move(row));
  }
  IndexRow(id, *rows_[id]);
  ++live_rows_;
  return id;
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

Result<PreparedQuery> Table::Prepare(const PredicatePtr& predicate) const {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null predicate");
  }
  std::vector<const Predicate*> conjuncts;
  conjuncts.reserve(std::max<size_t>(predicate->children().size(), 1));
  FlattenConjunction(*predicate, &conjuncts);
  // The column each top-level equality pins; kNone for other conjuncts and
  // kInKey once the equality is a key part of the chosen index.
  constexpr int64_t kNone = -1;
  constexpr int64_t kInKey = -2;
  std::vector<int64_t> pinned(conjuncts.size(), kNone);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Predicate* p = conjuncts[i];
    if (p == nullptr) {
      return Status::InvalidArgument("null predicate");
    }
    if (p->kind() == Predicate::Kind::kCmp && p->op() == CmpOp::kEq) {
      auto column = schema_.ColumnIndex(p->column());
      if (column.ok()) {
        pinned[i] = static_cast<int64_t>(column.value());
      }
    }
  }

  PreparedQuery query;
  query.table_ = this;
  {
    ScopedLock lock(mutex_);
    // The first index whose every column some equality pins.
    std::vector<size_t> picks;
    picks.reserve(probe_key_.size());
    for (size_t x = 0; x < indexes_.size() && query.index_ < 0; ++x) {
      const std::vector<size_t>& columns = indexes_[x].columns();
      picks.clear();
      for (size_t column : columns) {
        auto it = std::find(pinned.begin(), pinned.end(),
                            static_cast<int64_t>(column));
        if (it == pinned.end()) {
          break;
        }
        picks.push_back(static_cast<size_t>(it - pinned.begin()));
      }
      if (picks.size() != columns.size()) {
        continue;
      }
      query.index_ = static_cast<int>(x);
      query.key_.resize(picks.size());
      for (size_t k = 0; k < picks.size(); ++k) {
        const Predicate* p = conjuncts[picks[k]];
        PreparedQuery::KeyPart& part = query.key_[k];
        if (p->param() >= 0) {
          part.param = p->param();
          query.param_count_ = std::max(
              query.param_count_, static_cast<size_t>(p->param()) + 1);
        } else {
          const Value* coerced =
              schema_.Coerce(columns[k], p->value(), &part.constant);
          if (coerced == nullptr) {
            query.never_matches_ = true;
          } else if (coerced != &part.constant) {
            part.constant = *coerced;
          }
        }
      }
      for (size_t pick : picks) {
        pinned[pick] = kInKey;
      }
    }
  }

  // The residual: every conjunct that is not a key part, in order.
  size_t kept = 0;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (pinned[i] != kInKey) {
      conjuncts[kept++] = conjuncts[i];
    }
  }
  conjuncts.resize(kept);
  CWF_ASSIGN_OR_RETURN(query.residual_, Filter::Compile(conjuncts, schema_));
  query.param_count_ =
      std::max(query.param_count_, query.residual_.param_count());
  return query;
}

Result<PreparedUpsert> Table::PrepareUpsert(
    const std::vector<std::string>& key_columns) const {
  PreparedUpsert upsert;
  upsert.table_ = this;
  CWF_ASSIGN_OR_RETURN(upsert.key_columns_, schema_.ColumnIndexes(key_columns));
  ScopedLock lock(mutex_);
  for (size_t x = 0; x < indexes_.size(); ++x) {
    const std::vector<size_t>& columns = indexes_[x].columns();
    if (std::all_of(columns.begin(), columns.end(), [&](size_t c) {
          return std::find(upsert.key_columns_.begin(),
                           upsert.key_columns_.end(),
                           c) != upsert.key_columns_.end();
        })) {
      upsert.index_ = static_cast<int>(x);
      break;
    }
  }
  return upsert;
}

Status Table::CheckExecutable(const PreparedQuery& query,
                              std::span<const Value> params) const {
  if (query.table_ != this) {
    return Status::InvalidArgument("query was not prepared on table " + name_);
  }
  if (params.size() < query.param_count_) {
    return Status::InvalidArgument(
        "query needs " + std::to_string(query.param_count_) +
        " parameters, got " + std::to_string(params.size()));
  }
  return Status::OK();
}

template <typename Fn>
void Table::ForEachMatch(const PreparedQuery& query,
                         std::span<const Value> params, Fn&& fn) const {
  const Filter& residual = query.residual_;
  if (query.index_ < 0) {
    ++full_scans_;
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (rows_[id].has_value() && residual.Matches(*rows_[id], params) &&
          !fn(id, *rows_[id])) {
        return;
      }
    }
    return;
  }
  ++index_lookups_;
  if (query.never_matches_) {
    return;
  }
  const HashIndex& index = indexes_[static_cast<size_t>(query.index_)];
  for (size_t i = 0; i < query.key_.size(); ++i) {
    const PreparedQuery::KeyPart& part = query.key_[i];
    probe_key_[i] =
        part.param < 0
            ? &part.constant
            : schema_.Coerce(index.columns()[i],
                             params[static_cast<size_t>(part.param)],
                             &probe_values_[i]);
    if (probe_key_[i] == nullptr) {
      return;  // no cell of the column can equal this parameter
    }
  }
  const std::vector<const Value*>& key = probe_key_;
  const std::vector<RowId>* bucket =
      index.Find([&key](size_t i) -> const Value& { return *key[i]; });
  if (bucket == nullptr) {
    return;
  }
  for (RowId id : *bucket) {
    const Row& row = *rows_[id];
    if (residual.Matches(row, params) && !fn(id, row)) {
      return;
    }
  }
}

std::vector<RowId> Table::MatchingIds(const PreparedQuery& query,
                                      std::span<const Value> params) const {
  std::vector<RowId> ids;
  ForEachMatch(query, params, [&](RowId id, const Row&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

Result<size_t> Table::Count(const PreparedQuery& query,
                            std::span<const Value> params) const {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  size_t count = 0;
  ForEachMatch(query, params, [&](RowId, const Row&) {
    ++count;
    return true;
  });
  return count;
}

Result<Value> Table::Aggregate(AggKind kind, size_t column,
                               const PreparedQuery& query,
                               std::span<const Value> params) const {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  if (kind != AggKind::kCount) {
    if (column >= schema_.num_columns()) {
      return Status::InvalidArgument("aggregate column " +
                                     std::to_string(column) +
                                     " out of range on table " + name_);
    }
    const ColumnType type = schema_.column(column).type;
    if (type != ColumnType::kInt64 && type != ColumnType::kDouble) {
      return Status::InvalidArgument("cannot aggregate non-numeric column '" +
                                     schema_.column(column).name + "'");
    }
  }
  size_t rows = 0;
  size_t count = 0;
  double sum = 0;
  const Value* min = nullptr;
  const Value* max = nullptr;
  ForEachMatch(query, params, [&](RowId, const Row& row) {
    ++rows;
    if (kind == AggKind::kCount || row[column].is_null()) {
      return true;
    }
    // A column holds one type (Schema::Widen), so operator< orders it.
    const Value& cell = row[column];
    ++count;
    sum += cell.AsDouble();
    if (min == nullptr || cell < *min) {
      min = &cell;
    }
    if (max == nullptr || *max < cell) {
      max = &cell;
    }
    return true;
  });
  switch (kind) {
    case AggKind::kCount:
      return Value(static_cast<int64_t>(rows));
    case AggKind::kSum:
      return count > 0 ? Value(sum) : Value();
    case AggKind::kAvg:
      return count > 0 ? Value(sum / static_cast<double>(count)) : Value();
    case AggKind::kMin:
      return count > 0 ? *min : Value();
    case AggKind::kMax:
      return count > 0 ? *max : Value();
  }
  return Status::Internal("unknown aggregate kind");
}

Result<bool> Table::SelectOne(const PreparedQuery& query,
                              std::span<const Value> params, Row* out) const {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  bool found = false;
  ForEachMatch(query, params, [&](RowId, const Row& row) {
    *out = row;
    found = true;
    return false;
  });
  return found;
}

Result<std::vector<Row>> Table::Select(const PreparedQuery& query,
                                       std::span<const Value> params) const {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  std::vector<Row> out;
  ForEachMatch(query, params, [&](RowId, const Row& row) {
    out.push_back(row);
    return true;
  });
  return out;
}

Result<size_t> Table::Update(const PreparedQuery& query,
                             std::span<const Value> params,
                             const std::function<void(Row*)>& mutator) {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  const std::vector<RowId> targets = MatchingIds(query, params);
  for (RowId id : targets) {
    Row updated = *rows_[id];
    mutator(&updated);
    CWF_RETURN_NOT_OK(schema_.CheckRow(updated));
    schema_.Widen(&updated);
    CWF_RETURN_NOT_OK(CheckUnique(updated, id));
    ReindexRow(id, *rows_[id], updated);
    rows_[id] = std::move(updated);
  }
  return targets.size();
}

Result<size_t> Table::Delete(const PreparedQuery& query,
                             std::span<const Value> params) {
  ScopedLock lock(mutex_);
  CWF_RETURN_NOT_OK(CheckExecutable(query, params));
  const std::vector<RowId> targets = MatchingIds(query, params);
  for (RowId id : targets) {
    UnindexRow(id, *rows_[id]);
    rows_[id].reset();
    free_list_.push_back(id);
    --live_rows_;
  }
  return targets.size();
}

Result<bool> Table::Upsert(const PreparedUpsert& upsert, Row row) {
  ScopedLock lock(mutex_);
  if (upsert.table_ != this) {
    return Status::InvalidArgument("upsert was not prepared on table " +
                                   name_);
  }
  CWF_RETURN_NOT_OK(schema_.CheckRow(row));
  schema_.Widen(&row);
  const std::vector<std::optional<Row>>& rows = rows_;
  auto same_key = [&](RowId id) {
    const Row& stored = *rows[id];
    for (size_t c : upsert.key_columns_) {
      if (!Compare(stored[c], CmpOp::kEq, row[c])) {
        return false;
      }
    }
    return true;
  };
  std::optional<RowId> existing;
  if (upsert.index_ >= 0) {
    ++index_lookups_;
    const std::vector<RowId>* bucket =
        indexes_[static_cast<size_t>(upsert.index_)].FindRow(row);
    if (bucket != nullptr) {
      auto it = std::find_if(bucket->begin(), bucket->end(), same_key);
      if (it != bucket->end()) {
        existing = *it;
      }
    }
  } else {
    ++full_scans_;
    for (RowId id = 0; id < rows_.size() && !existing.has_value(); ++id) {
      if (rows_[id].has_value() && same_key(id)) {
        existing = id;
      }
    }
  }
  if (!existing.has_value()) {
    CWF_RETURN_NOT_OK(InsertLocked(std::move(row)).status());
    return false;
  }
  CWF_RETURN_NOT_OK(CheckUnique(row, *existing));
  ReindexRow(*existing, *rows_[*existing], row);
  rows_[*existing] = std::move(row);
  return true;
}

// ---------------------------------------------------------------------------
// One-shot forms
// ---------------------------------------------------------------------------

Result<bool> Table::Upsert(const std::vector<std::string>& key_columns,
                           Row row) {
  CWF_ASSIGN_OR_RETURN(PreparedUpsert upsert, PrepareUpsert(key_columns));
  return Upsert(upsert, std::move(row));
}

Result<size_t> Table::Update(const PredicatePtr& predicate,
                             const std::function<void(Row*)>& mutator) {
  CWF_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(predicate));
  return Update(query, {}, mutator);
}

Result<size_t> Table::Delete(const PredicatePtr& predicate) {
  CWF_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(predicate));
  return Delete(query);
}

Result<std::vector<Row>> Table::Select(const PredicatePtr& predicate) const {
  CWF_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(predicate));
  return Select(query);
}

Result<std::optional<Row>> Table::SelectOne(
    const PredicatePtr& predicate) const {
  CWF_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(predicate));
  Row row;
  CWF_ASSIGN_OR_RETURN(bool found, SelectOne(query, {}, &row));
  if (!found) {
    return std::optional<Row>();
  }
  return std::optional<Row>(std::move(row));
}

Result<Value> Table::Aggregate(AggKind kind, const std::string& column,
                               const PredicatePtr& predicate) const {
  size_t column_idx = 0;
  if (kind != AggKind::kCount || !column.empty()) {
    CWF_ASSIGN_OR_RETURN(column_idx, schema_.ColumnIndex(column));
  }
  CWF_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(predicate));
  return Aggregate(kind, column_idx, query);
}

size_t Table::RowCount() const {
  ScopedLock lock(mutex_);
  return live_rows_;
}

void Table::Truncate() {
  ScopedLock lock(mutex_);
  rows_.clear();
  free_list_.clear();
  live_rows_ = 0;
  for (HashIndex& index : indexes_) {
    index.Clear();
  }
}

}  // namespace cwf::db

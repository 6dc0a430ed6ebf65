// The hash index of the embedded store's tables.

#ifndef CONFLUENCE_DB_HASH_INDEX_H_
#define CONFLUENCE_DB_HASH_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/key_index.h"
#include "db/value.h"

namespace cwf::db {

/// \brief Stable row identifier within a table.
using RowId = size_t;

/// \brief A hash index over a column subset of a table: key values to the
/// ids of the rows holding them.
///
/// The keys are a KeyIndex (core/key_index.h), the table the window
/// operator finds its groups in: each distinct key is a bucket with the
/// key's id, and a bucket that empties is erased and its id reused. A
/// lookup hashes the probe key where it lies and walks the bucket in place.
///
/// A bucket keeps its row ids ascending, which is the order a full scan
/// visits them, so a query returns (and aggregates) the same rows in the
/// same order whether it walks the index or the table.
///
/// Keys compare with KeyIndex::KeyEquals (NaN equals NaN, so a NaN cell can
/// be removed again). The table stores each column's cells in that column's
/// type (Schema::Widen) and converts probe values to it (Schema::Coerce),
/// which makes this the comparison a scan applies.
///
/// Not thread-safe; the owning table's mutex serializes access.
class HashIndex {
 public:
  HashIndex(std::string name, std::vector<size_t> columns, bool unique);

  const std::string& name() const { return name_; }
  /// Indexed columns, in key order.
  const std::vector<size_t>& columns() const { return columns_; }
  bool unique() const { return unique_; }

  /// \brief Ids (ascending) of the rows whose key equals `key(0)`, ...,
  /// `key(n-1)` — one value per indexed column — or nullptr if none.
  template <typename KeyAt>
  const std::vector<RowId>* Find(const KeyAt& key) const {
    const std::optional<uint32_t> id = keys_.Find(key);
    return id.has_value() ? &buckets_[*id] : nullptr;
  }

  /// \brief The bucket holding `row`'s key, or nullptr.
  const std::vector<RowId>* FindRow(const Row& row) const {
    return Find(KeyOf(row));
  }

  /// \brief Whether rows `a` and `b` have the same key.
  bool SameKey(const Row& a, const Row& b) const;

  /// \brief Index row `id`, whose cells are `row`.
  void Add(RowId id, const Row& row);

  /// \brief Drop row `id`, which was added with the key `row` holds.
  void Remove(RowId id, const Row& row);

  /// \brief Drop every row.
  void Clear();

 private:
  /// A row's key, as KeyIndex reads it: the indexed columns' cells.
  struct RowKey {
    const Row& row;
    const std::vector<size_t>& columns;
    const Value& operator()(size_t i) const { return row[columns[i]]; }
  };
  RowKey KeyOf(const Row& row) const { return RowKey{row, columns_}; }

  std::string name_;
  std::vector<size_t> columns_;
  bool unique_;
  KeyIndex keys_;
  /// Row ids per key id, ascending.
  std::vector<std::vector<RowId>> buckets_;
};

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_HASH_INDEX_H_

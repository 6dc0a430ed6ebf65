// The hash index of the embedded store's tables.

#ifndef CONFLUENCE_DB_HASH_INDEX_H_
#define CONFLUENCE_DB_HASH_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/value.h"

namespace cwf::db {

/// \brief Stable row identifier within a table.
using RowId = size_t;

/// \brief A hash index over a column subset of a table: key values to the
/// ids of the rows holding them.
///
/// The layout is the window group table's (window/window_operator.h): each
/// distinct key is a bucket with a dense id; an open-addressing index of
/// 8-byte (hash, bucket) slots (linear probing, at most half full) finds
/// it; the keys sit in one flat value array, columns().size() per bucket.
/// A lookup hashes the probe key where it lies (a parameter span, a row)
/// and walks the bucket in place, so it copies no value and allocates
/// nothing. A bucket that empties is erased with backward-shift deletion
/// and its id reused, so the index does not grow with keys that are gone.
///
/// A bucket keeps its row ids ascending, which is the order a full scan
/// visits them, so a query returns (and aggregates) the same rows in the
/// same order whether it walks the index or the table. While rows are only
/// inserted, ascending id order is insertion order.
///
/// Keys compare with Value::operator==, except that NaN equals NaN (so a
/// NaN cell can be removed again). The table stores each column's cells in
/// that column's type (Schema::Widen) and converts probe values to it
/// (Schema::Coerce), which makes this the comparison a scan applies.
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
    if (slots_.empty()) {
      return nullptr;
    }
    const Slot& slot = slots_[Probe(Hash(key), key)];
    return slot.bucket == kNoBucket ? nullptr : &buckets_[slot.bucket];
  }

  /// \brief The bucket holding `row`'s key, or nullptr.
  const std::vector<RowId>* FindRow(const Row& row) const {
    return Find([&](size_t i) -> const Value& { return row[columns_[i]]; });
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
  struct Slot {
    uint32_t hash = 0;
    uint32_t bucket = kNoBucket;
  };
  static constexpr uint32_t kNoBucket = UINT32_MAX;

  static bool KeyEquals(const Value& a, const Value& b);

  template <typename KeyAt>
  uint32_t Hash(const KeyAt& key) const {
    uint64_t h = 0;
    for (size_t i = 0; i < columns_.size(); ++i) {
      h = Mix64(h ^ key(i).Hash());
    }
    return static_cast<uint32_t>(h);
  }

  /// Position of the slot holding the key, or of the empty slot that ends
  /// its probe sequence. Needs a non-empty slot array.
  template <typename KeyAt>
  size_t Probe(uint32_t hash, const KeyAt& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.bucket == kNoBucket) {
        return pos;
      }
      if (slot.hash == hash) {
        const Value* stored = &keys_[slot.bucket * columns_.size()];
        size_t i = 0;
        while (i < columns_.size() && KeyEquals(stored[i], key(i))) {
          ++i;
        }
        if (i == columns_.size()) {
          return pos;
        }
      }
    }
  }

  /// splitmix64 finalizer: Value::Hash is the identity on ints.
  static uint64_t Mix64(uint64_t h) {
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return h;
  }

  /// Double the slot array.
  void Grow();

  /// Empty slot `pos`, shifting later entries of its cluster back.
  void EraseSlot(size_t pos);

  std::string name_;
  std::vector<size_t> columns_;
  bool unique_;
  std::vector<Slot> slots_;
  /// columns_.size() key values per bucket id.
  std::vector<Value> keys_;
  /// Row ids per bucket id, ascending.
  std::vector<std::vector<RowId>> buckets_;
  /// Ids of erased buckets, reused before new ones.
  std::vector<uint32_t> free_buckets_;
  size_t live_buckets_ = 0;
};

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_HASH_INDEX_H_

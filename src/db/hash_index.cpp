#include "db/hash_index.h"

#include <algorithm>

#include "common/check.h"

namespace cwf::db {

HashIndex::HashIndex(std::string name, std::vector<size_t> columns,
                     bool unique)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      unique_(unique),
      keys_(columns_.size()) {}

bool HashIndex::SameKey(const Row& a, const Row& b) const {
  for (size_t c : columns_) {
    if (!KeyIndex::KeyEquals(a[c], b[c])) {
      return false;
    }
  }
  return true;
}

void HashIndex::Add(RowId id, const Row& row) {
  const uint32_t key = keys_.Insert(KeyOf(row)).first;
  if (key == buckets_.size()) {
    buckets_.emplace_back();
  }
  std::vector<RowId>& ids = buckets_[key];
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);  // the common case: a fresh row id
  } else {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  }
}

void HashIndex::Remove(RowId id, const Row& row) {
  const std::optional<uint32_t> key = keys_.Find(KeyOf(row));
  CWF_CHECK_MSG(key.has_value(), "index " << name_ << " lost a key");
  std::vector<RowId>& ids = buckets_[*key];
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  CWF_CHECK_MSG(it != ids.end() && *it == id,
                "index " << name_ << " lost row " << id);
  ids.erase(it);
  if (ids.empty()) {
    keys_.Erase(*key);
  }
}

void HashIndex::Clear() {
  keys_.Clear();
  buckets_.clear();
}

}  // namespace cwf::db

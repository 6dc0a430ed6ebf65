#include "db/hash_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cwf::db {

HashIndex::HashIndex(std::string name, std::vector<size_t> columns,
                     bool unique)
    : name_(std::move(name)), columns_(std::move(columns)), unique_(unique) {}

bool HashIndex::KeyEquals(const Value& a, const Value& b) {
  return a == b || (a.is_double() && b.is_double() &&
                    std::isnan(a.AsDouble()) && std::isnan(b.AsDouble()));
}

bool HashIndex::SameKey(const Row& a, const Row& b) const {
  for (size_t c : columns_) {
    if (!KeyEquals(a[c], b[c])) {
      return false;
    }
  }
  return true;
}

void HashIndex::Add(RowId id, const Row& row) {
  if (slots_.empty()) {
    slots_.resize(16);
  }
  auto key = [&](size_t i) -> const Value& { return row[columns_[i]]; };
  const uint32_t hash = Hash(key);
  Slot& slot = slots_[Probe(hash, key)];
  if (slot.bucket == kNoBucket) {
    uint32_t bucket;
    if (!free_buckets_.empty()) {
      bucket = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      CWF_CHECK_MSG(buckets_.size() < kNoBucket, "index buckets exhausted");
      bucket = static_cast<uint32_t>(buckets_.size());
      buckets_.emplace_back();
      keys_.resize(keys_.size() + columns_.size());
    }
    for (size_t i = 0; i < columns_.size(); ++i) {
      keys_[bucket * columns_.size() + i] = key(i);
    }
    slot.hash = hash;
    slot.bucket = bucket;
    ++live_buckets_;
    buckets_[bucket].push_back(id);
    if (live_buckets_ * 2 > slots_.size()) {
      Grow();
    }
    return;
  }
  std::vector<RowId>& ids = buckets_[slot.bucket];
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);  // the common case: a fresh row id
  } else {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  }
}

void HashIndex::Remove(RowId id, const Row& row) {
  CWF_CHECK(!slots_.empty());
  auto key = [&](size_t i) -> const Value& { return row[columns_[i]]; };
  const size_t pos = Probe(Hash(key), key);
  const uint32_t bucket = slots_[pos].bucket;
  CWF_CHECK_MSG(bucket != kNoBucket, "index " << name_ << " lost a key");
  std::vector<RowId>& ids = buckets_[bucket];
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  CWF_CHECK_MSG(it != ids.end() && *it == id,
                "index " << name_ << " lost row " << id);
  ids.erase(it);
  if (ids.empty()) {
    EraseSlot(pos);
    free_buckets_.push_back(bucket);
    --live_buckets_;
  }
}

void HashIndex::Clear() {
  slots_.clear();
  keys_.clear();
  buckets_.clear();
  free_buckets_.clear();
  live_buckets_ = 0;
}

void HashIndex::Grow() {
  std::vector<Slot> grown(slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.bucket == kNoBucket) {
      continue;
    }
    size_t pos = slot.hash & mask;
    while (grown[pos].bucket != kNoBucket) {
      pos = (pos + 1) & mask;
    }
    grown[pos] = slot;
  }
  slots_.swap(grown);
}

void HashIndex::EraseSlot(size_t pos) {
  const size_t mask = slots_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; slots_[next].bucket != kNoBucket;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole if the hole lies on its probe
    // path, i.e. between its home slot and `next` (cyclically).
    const size_t home = slots_[next].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
}

}  // namespace cwf::db

// The flat key index: the one table behind the window operator's group-by
// partitions and the embedded store's hash indexes.

#ifndef CONFLUENCE_CORE_KEY_INDEX_H_
#define CONFLUENCE_CORE_KEY_INDEX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/record.h"

namespace cwf {

/// \brief Maps keys of `arity` Values to dense ids.
///
/// An open-addressing array of 8-byte (hash, id) slots (linear probing,
/// power-of-two size, at most half full) finds a key's id; the keys sit in
/// one flat value array, `arity` values per id. A key is passed as
/// `key_at(i) -> const Value&`, so it is hashed and compared where it lies
/// (a record, a row, a parameter span) and a lookup copies and allocates
/// nothing. Erase leaves no tombstone (backward shift) and frees the id;
/// Insert reuses the last freed id first, so until a key is erased ids are
/// 0, 1, 2, ... in insertion order. Not thread-safe.
class KeyIndex {
 public:
  explicit KeyIndex(size_t arity) : arity_(arity) {}

  /// Keys held.
  size_t size() const { return size_; }

  /// \brief The one key equality: Value::operator==, except that NaN
  /// equals NaN, so a NaN key is found again.
  static bool KeyEquals(const Value& a, const Value& b) {
    return a == b || (a.is_double() && b.is_double() &&
                      std::isnan(a.AsDouble()) && std::isnan(b.AsDouble()));
  }

  /// \brief The id of the key `key_at(0..arity-1)`, or none.
  template <typename KeyAt>
  std::optional<uint32_t> Find(const KeyAt& key_at) const {
    const uint32_t id =
        slots_.empty() ? kNoId : slots_[Probe(Hash(key_at), key_at)].id;
    return id == kNoId ? std::nullopt : std::optional<uint32_t>(id);
  }

  /// \brief The id of the key `key_at(0..arity-1)`, which is added if it
  /// is absent; `second` is whether it was added.
  template <typename KeyAt>
  std::pair<uint32_t, bool> Insert(const KeyAt& key_at) {
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    }
    const uint32_t hash = Hash(key_at);
    Slot& slot = slots_[Probe(hash, key_at)];
    if (slot.id != kNoId) {
      return {slot.id, false};
    }
    uint32_t id;
    if (free_ids_.empty()) {
      CWF_CHECK_MSG(size_ < kNoId, "key index ids exhausted");
      id = static_cast<uint32_t>(size_);
      for (size_t i = 0; i < arity_; ++i) {
        keys_.push_back(key_at(i));
      }
    } else {
      id = free_ids_.back();
      free_ids_.pop_back();
      for (size_t i = 0; i < arity_; ++i) {
        keys_[size_t{id} * arity_ + i] = key_at(i);
      }
    }
    slot = Slot{hash, id};
    if (++size_ * 2 > slots_.size()) {
      Grow();
    }
    return {id, true};
  }

  /// \brief Remove the key of live id `id` and free the id. Its values are
  /// released at once.
  void Erase(uint32_t id);

  /// \brief The `arity` values of live id `id`'s key.
  const Value* Key(uint32_t id) const {
    return keys_.data() + size_t{id} * arity_;
  }

  /// \brief Remove every key; ids start again at 0.
  void Clear() { *this = KeyIndex(arity_); }

 private:
  /// A key's id and the low 32 bits of its hash.
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = kNoId;
  };

  static constexpr uint32_t kNoId = UINT32_MAX;
  static constexpr size_t kInitialSlots = 16;

  /// splitmix64 finalizer: Value::Hash is the identity on ints, and linear
  /// probing over small dense ids needs every input bit spread.
  static uint64_t Mix64(uint64_t h) {
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return h;
  }

  template <typename KeyAt>
  uint32_t Hash(const KeyAt& key_at) const {
    uint64_t h = 0;
    for (size_t i = 0; i < arity_; ++i) {
      h = Mix64(h ^ key_at(i).Hash());
    }
    return static_cast<uint32_t>(h);
  }

  /// Position of the slot holding the key, or of the empty slot that ends
  /// its probe sequence. Needs a non-empty slot array.
  template <typename KeyAt>
  size_t Probe(uint32_t hash, const KeyAt& key_at) const {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.id == kNoId) {
        return pos;
      }
      if (slot.hash == hash) {
        const Value* stored = Key(slot.id);
        size_t i = 0;
        while (i < arity_ && KeyEquals(stored[i], key_at(i))) {
          ++i;
        }
        if (i == arity_) {
          return pos;
        }
      }
    }
  }

  /// Double the slot array.
  void Grow();

  size_t arity_;
  size_t size_ = 0;
  std::vector<Slot> slots_;
  /// arity_ values per id, in id order.
  std::vector<Value> keys_;
  /// Erased ids, reused last-freed first.
  std::vector<uint32_t> free_ids_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_KEY_INDEX_H_

#include "core/key_index.h"

#include <algorithm>

namespace cwf {

void KeyIndex::Erase(uint32_t id) {
  CWF_CHECK(!slots_.empty());
  Value* key = keys_.data() + size_t{id} * arity_;
  const size_t mask = slots_.size() - 1;
  size_t hole = Hash([key](size_t i) -> const Value& { return key[i]; }) & mask;
  while (slots_[hole].id != id) {
    CWF_CHECK_MSG(slots_[hole].id != kNoId, "key index has no id " << id);
    hole = (hole + 1) & mask;
  }
  // Backward shift: an entry later in the cluster may fill the hole if the
  // hole lies on its probe path, i.e. between its home slot and its
  // position (cyclically).
  for (size_t next = (hole + 1) & mask; slots_[next].id != kNoId;
       next = (next + 1) & mask) {
    const size_t home = slots_[next].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  std::fill_n(key, arity_, Value());
  free_ids_.push_back(id);
  --size_;
}

void KeyIndex::Grow() {
  std::vector<Slot> grown(slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kNoId) {
      continue;
    }
    size_t pos = slot.hash & mask;
    while (grown[pos].id != kNoId) {
      pos = (pos + 1) & mask;
    }
    grown[pos] = slot;
  }
  slots_.swap(grown);
}

}  // namespace cwf

// IdTable: deduplicates items by content through dense ids. The caller
// keeps the items (answers, assignments, images) in its own flat arrays
// and numbers them; the table keeps only (id, hash) pairs in open
// addressing with linear probing, so no key is copied into it.
#ifndef CQABENCH_COMMON_ID_TABLE_H_
#define CQABENCH_COMMON_ID_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqa {

class IdTable {
 public:
  /// The id of an item already added under `hash` for which `same(id)`
  /// holds, or else `id` itself, which is added. `hash` must be mixed:
  /// slots are picked by its low bits.
  template <typename Same>
  uint32_t FindOrAdd(uint32_t id, uint64_t hash, Same same) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    for (; slots_[s].id != kNone; s = (s + 1) & mask) {
      if (slots_[s].hash == hash && same(slots_[s].id)) return slots_[s].id;
    }
    slots_[s] = Slot{id, hash};
    ++size_;
    return id;
  }

  /// Number of ids added.
  size_t size() const { return size_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Slot {
    uint32_t id;
    uint64_t hash;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{kNone, 0});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      size_t s = slot.hash & mask;
      while (slots_[s].id != kNone) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace cqa

#endif  // CQABENCH_COMMON_ID_TABLE_H_

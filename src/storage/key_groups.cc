#include "storage/key_groups.h"

#include <algorithm>
#include <iterator>

#include "common/macros.h"

namespace cqa {

namespace {

constexpr uint64_t kFold = 1000003;

// Bucket counts: the first prime above each power of two from 2^4, so a
// table doubles as it grows and no stride in the keys maps onto it.
constexpr uint32_t kPrimes[] = {
    17,       37,        67,        131,       257,        521,
    1031,     2053,      4099,      8209,      16411,      32771,
    65537,    131101,    262147,    524309,    1048583,    2097169,
    4194319,  8388617,   16777259,  33554467,  67108879,   134217757,
    268435459, 536870923, 1073741827, 2147483659u};

uint32_t Tag(uint64_t hash) {
  return static_cast<uint32_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32);
}

/// Reads run `r` of every key column into the slots of the run's rows,
/// `width` per row, and folds each row's hash.
void ReadRunKeys(const std::vector<std::vector<ColumnRun>>& runs, size_t r,
                 size_t length, std::vector<ValueSlot>* slots,
                 std::vector<uint64_t>* hashes) {
  const size_t width = runs.size();
  slots->resize(length * width);
  hashes->assign(length, 0);
  for (size_t k = 0; k < width; ++k) {
    const ColumnRun& run = runs[k][r];
    for (size_t i = 0; i < length; ++i) {
      const ValueSlot slot = run.SlotAt(i);
      (*slots)[i * width + k] = slot;
      (*hashes)[i] = (*hashes)[i] * kFold + SlotHash(run.type, slot);
    }
  }
}

}  // namespace

void KeyGroups::ResetBuckets(size_t groups) {
  const uint32_t* prime =
      std::upper_bound(std::begin(kPrimes), std::end(kPrimes) - 1, groups);
  head_.assign(*prime, kNone);
  bucket_magic_ = UINT64_MAX / *prime + 1;
}

uint32_t KeyGroups::Bucket(uint64_t hash) const {
  // hash mod the bucket count, by Lemire's direct remainder on the hash
  // folded to 32 bits: two multiplies instead of a division.
  const uint32_t folded = static_cast<uint32_t>(hash ^ (hash >> 32));
  const uint64_t low = bucket_magic_ * folded;
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(low) * head_.size()) >> 64);
}

uint64_t KeyGroups::HashKey(const ValueSlot* key) const {
  // The fold ReadRunKeys applies column by column: Find and Build must
  // agree on every hash.
  uint64_t hash = 0;
  for (size_t k = 0; k < types_.size(); ++k) {
    hash = hash * kFold + SlotHash(types_[k], key[k]);
  }
  return hash;
}

bool KeyGroups::HasNaN(const ValueSlot* key) const {
  for (size_t k = 0; k < types_.size(); ++k) {
    if (SlotIsNaN(types_[k], key[k])) return true;
  }
  return false;
}

bool KeyGroups::KeysEqual(const ValueSlot* a, const ValueSlot* b) const {
  for (size_t k = 0; k < types_.size(); ++k) {
    if (!SlotEquals(types_[k], a[k], b[k])) return false;
  }
  return true;
}

KeyGroups KeyGroups::Build(const Relation& rel, std::vector<size_t> positions,
                           NanRows nan_rows) {
  const size_t n = rel.size();
  CQA_CHECK(n < kNone);
  KeyGroups groups;
  groups.rel_ = &rel;
  groups.positions_ = std::move(positions);
  const size_t width = groups.positions_.size();
  bool doubles = false;  // Only a double key can hold a NaN.
  for (size_t pos : groups.positions_) {
    CQA_CHECK(pos < rel.schema().arity());
    groups.types_.push_back(rel.schema().attribute(pos).type);
    doubles |= groups.types_.back() == ValueType::kDouble;
  }
  // The key columns run by run: columns share chunk boundaries, so run r
  // of every column covers the same rows. A key of no columns is one run.
  std::vector<std::vector<ColumnRun>> runs(width);
  for (size_t k = 0; k < width; ++k) {
    rel.ForEachRun(groups.positions_[k],
                   [&](const ColumnRun& run) { runs[k].push_back(run); });
  }
  const size_t num_runs = width > 0 ? runs[0].size() : (n > 0 ? 1 : 0);

  // One pass in row order: a row joins the group of the first row with an
  // equal key, or opens a group. A group keeps its key's slots and hash
  // while Build runs, so comparing a row never reads the relation and
  // growing never hashes again. offsets_ counts each group's rows until
  // the CSR is laid out.
  std::vector<ValueSlot> run_slots, keys;  // Per row of the run; per group.
  std::vector<uint64_t> run_hashes, hashes;
  std::vector<uint32_t> group_of(n, kNone);
  std::vector<uint32_t>& counts = groups.offsets_;
  std::vector<Link>& links = groups.links_;
  groups.ResetBuckets(0);
  for (size_t r = 0; r < num_runs; ++r) {
    const size_t row0 = width > 0 ? runs[0][r].row0 : 0;
    const size_t length = width > 0 ? runs[0][r].length : n;
    ReadRunKeys(runs, r, length, &run_slots, &run_hashes);
    for (size_t i = 0; i < length; ++i) {
      const uint32_t row = static_cast<uint32_t>(row0 + i);
      const ValueSlot* key = run_slots.data() + i * width;
      const uint64_t hash = run_hashes[i];
      uint32_t id = kNone;
      const bool nan = doubles && groups.HasNaN(key);
      if (nan && nan_rows == NanRows::kLeftOut) continue;
      uint32_t& head = groups.head_[groups.Bucket(hash)];
      const uint32_t tag = Tag(hash);
      if (!nan) {
        for (id = head; id != kNone; id = links[id].next) {
          if (links[id].tag == tag &&
              groups.KeysEqual(keys.data() + size_t{id} * width, key)) {
            break;
          }
        }
      }
      if (id == kNone) {
        id = static_cast<uint32_t>(counts.size());
        // A NaN-keyed group is in no chain: no key equals its key.
        links.push_back(Link{nan ? kNone : head, tag});
        if (!nan) head = id;
        keys.insert(keys.end(), key, key + width);
        hashes.push_back(hash);
        counts.push_back(0);
        if (counts.size() > groups.head_.size() &&
            groups.head_.size() < kPrimes[std::size(kPrimes) - 1]) {
          groups.ResetBuckets(counts.size());
          for (uint32_t g = 0; g < counts.size(); ++g) {
            if (doubles && groups.HasNaN(keys.data() + size_t{g} * width)) {
              continue;
            }
            uint32_t& first = groups.head_[groups.Bucket(hashes[g])];
            links[g].next = first;
            first = g;
          }
        }
      }
      group_of[row] = id;
      ++counts[id];
    }
  }
  keys = std::vector<ValueSlot>();
  hashes = std::vector<uint64_t>();

  // Counts become each group's end, then, filled from the last row back,
  // its start; rows land ascending within each group.
  uint32_t end = 0;
  for (uint32_t& count : counts) count = end += count;
  groups.rows_.resize(end);
  for (uint32_t row = static_cast<uint32_t>(n); row-- > 0;) {
    if (group_of[row] != kNone) groups.rows_[--counts[group_of[row]]] = row;
  }
  counts.push_back(end);
  counts.shrink_to_fit();
  links.shrink_to_fit();
  return groups;
}

uint32_t KeyGroups::Find(const ValueSlot* key) const {
  if (HasNaN(key)) return kNone;
  const uint64_t hash = HashKey(key);
  const uint32_t tag = Tag(hash);
  for (uint32_t id = head_[Bucket(hash)]; id != kNone; id = links_[id].next) {
    if (links_[id].tag != tag) continue;
    const uint32_t first = rows_[offsets_[id]];
    size_t k = 0;
    while (k < types_.size() &&
           SlotEquals(types_[k], key[k], rel_->SlotAt(first, positions_[k]))) {
      ++k;
    }
    if (k == types_.size()) return id;
  }
  return kNone;
}

}  // namespace cqa

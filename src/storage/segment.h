// Typed per-column value segments: the storage unit of the chunked
// columnar data plane (docs/storage.md). A Segment holds one column of one
// sealed chunk, either as a plain typed vector or dictionary-encoded
// (sorted duplicate-free dictionary + uint32 codes). Sealing picks the
// encoding from the value distribution; readers consume segments either
// through point accessors (GetValue/ValueEquals) or as raw ColumnRun spans
// via Run(), the zero-copy currency of the segment-iteration layer.
// Segments are immutable after Seal* and safe to share across threads.
#ifndef CQABENCH_STORAGE_SEGMENT_H_
#define CQABENCH_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/value.h"

namespace cqa {

/// How a sealed segment physically stores its column.
enum class SegmentEncoding { kPlain, kDictionary };

/// Returns "plain" or "dictionary".
const char* SegmentEncodingName(SegmentEncoding encoding);

/// A contiguous typed run of one column: raw pointers into a segment (or a
/// relation's unsealed tail buffer). Valid until the owning relation is
/// mutated. Exactly one payload family is populated:
///   * plain runs set one of `ints`/`doubles`/`strings`;
///   * dictionary runs set `codes` plus `int_dict` or `string_dict`, where
///     codes[i] indexes the sorted duplicate-free dictionary.
struct ColumnRun {
  ValueType type = ValueType::kInt;
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  size_t row0 = 0;    ///< Global row index of the run's first value.
  size_t length = 0;  ///< Number of values in the run.

  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const std::string* strings = nullptr;

  const uint32_t* codes = nullptr;
  const int64_t* int_dict = nullptr;
  const std::string* string_dict = nullptr;
  size_t dict_size = 0;

  /// The value at run-local index `i` (i < length) as a slot of `type`; a
  /// string slot points into the run's payload or dictionary.
  ValueSlot SlotAt(size_t i) const {
    CQA_DCHECK(i < length);
    ValueSlot slot{};
    if (encoding == SegmentEncoding::kDictionary) {
      CQA_DCHECK(codes[i] < dict_size);
      if (type == ValueType::kInt) {
        slot.i = int_dict[codes[i]];
      } else {
        slot.s = &string_dict[codes[i]];
      }
      return slot;
    }
    switch (type) {
      case ValueType::kInt:
        slot.i = ints[i];
        break;
      case ValueType::kDouble:
        slot.d = doubles[i];
        break;
      case ValueType::kString:
        slot.s = &strings[i];
        break;
    }
    return slot;
  }

  /// Materializes the value at run-local index `i` (i < length).
  Value ValueAt(size_t i) const { return SlotValue(type, SlotAt(i)); }
};

/// One column of one sealed chunk. Construction goes through the Seal*
/// factories, which consume the plain append buffer and choose the
/// encoding (docs/storage.md, "Encoding selection"):
///   * int columns dictionary-encode when 2·distinct <= rows (4-byte codes
///     plus an 8-byte dictionary must undercut 8-byte plain values);
///   * string columns dictionary-encode whenever any value repeats
///     (all-distinct columns stay plain — a dictionary would only add the
///     code array on top of the same strings);
///   * double columns always stay plain (bit-exact round-trip matters more
///     than the rare low-cardinality double column).
/// Dictionaries are sorted ascending and duplicate-free, so code order
/// mirrors value order and min/max fall out of the dictionary ends. A seal
/// numbers the distinct values in one hash pass that stops as soon as the
/// rule fails, so only a dictionary's own entries are ever sorted.
class Segment {
 public:
  Segment() = default;

  static Segment SealInts(std::vector<int64_t> values);
  static Segment SealDoubles(std::vector<double> values);
  static Segment SealStrings(std::vector<std::string> values);

  ValueType type() const { return type_; }
  SegmentEncoding encoding() const { return encoding_; }
  size_t size() const { return size_; }

  /// The value at index `i` as a slot of type(): the number itself, or a
  /// pointer to the string in the plain payload or the dictionary.
  ValueSlot SlotAt(size_t i) const {
    CQA_DCHECK(i < size_);
    ValueSlot slot{};
    if (encoding_ == SegmentEncoding::kDictionary) {
      const uint32_t code = codes_[i];
      if (type_ == ValueType::kInt) {
        slot.i = int_dict_[code];
      } else {
        slot.s = &string_dict_[code];
      }
      return slot;
    }
    switch (type_) {
      case ValueType::kInt:
        slot.i = ints_[i];
        break;
      case ValueType::kDouble:
        slot.d = doubles_[i];
        break;
      case ValueType::kString:
        slot.s = &strings_[i];
        break;
    }
    return slot;
  }

  /// Materializes the value at index `i`.
  Value GetValue(size_t i) const { return SlotValue(type_, SlotAt(i)); }

  /// Compares the value at index `i` against `v` without materializing
  /// (no string copies; dictionary lookups touch the dict entry in place).
  bool ValueEquals(size_t i, const Value& v) const {
    return v.type() == type_ && SlotEquals(type_, SlotAt(i), SlotOf(v));
  }

  /// The whole segment as a raw run starting at global row `row0`.
  ColumnRun Run(size_t row0) const;

  /// Dictionary code of `v` if this segment is dictionary-encoded and `v`
  /// is present; kNoCode otherwise (also for plain segments).
  static constexpr uint32_t kNoCode = UINT32_MAX;
  uint32_t FindCode(const Value& v) const;

  /// Number of dictionary entries (0 for plain segments).
  size_t dict_size() const;

  /// Heap footprint in bytes (payload vectors, not the object header).
  size_t MemoryBytes() const;

 private:
  ValueType type_ = ValueType::kInt;
  SegmentEncoding encoding_ = SegmentEncoding::kPlain;
  size_t size_ = 0;

  // Plain payloads (one used, by type_).
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;

  // Dictionary payloads.
  std::vector<uint32_t> codes_;
  std::vector<int64_t> int_dict_;
  std::vector<std::string> string_dict_;
};

}  // namespace cqa

#endif  // CQABENCH_STORAGE_SEGMENT_H_

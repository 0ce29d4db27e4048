#include "storage/segment.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/id_table.h"
#include "common/macros.h"
#include "common/rng.h"

namespace cqa {

const char* SegmentEncodingName(SegmentEncoding encoding) {
  switch (encoding) {
    case SegmentEncoding::kPlain:
      return "plain";
    case SegmentEncoding::kDictionary:
      return "dictionary";
  }
  return "?";
}

namespace {

/// Dictionary-encodes `values` unless more than `max_distinct` of them are
/// distinct. One pass through an IdTable numbers the distinct values in
/// order of first appearance and stops as soon as there are too many;
/// then only the distinct values are sorted, moved into `dict` in
/// ascending order, and the codes renumbered to match. On failure returns
/// false and leaves `values`, `dict` and `codes` as they were.
template <typename T, typename Hash>
bool EncodeDictionary(std::vector<T>& values, size_t max_distinct, Hash hash,
                      std::vector<T>* dict, std::vector<uint32_t>* codes) {
  IdTable ids;
  std::vector<uint32_t> first_rows;  // Per number: where its value is.
  std::vector<uint32_t> numbers(values.size());
  for (size_t row = 0; row < values.size(); ++row) {
    const auto next = static_cast<uint32_t>(first_rows.size());
    numbers[row] = ids.FindOrAdd(next, hash(values[row]), [&](uint32_t id) {
      return values[first_rows[id]] == values[row];
    });
    if (numbers[row] == next) {
      if (next == max_distinct) return false;
      first_rows.push_back(static_cast<uint32_t>(row));
    }
  }
  std::vector<uint32_t> by_value(first_rows.size());
  std::iota(by_value.begin(), by_value.end(), 0u);
  std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
    return values[first_rows[a]] < values[first_rows[b]];
  });
  std::vector<uint32_t> code_of(first_rows.size());
  dict->reserve(first_rows.size());
  for (size_t code = 0; code < by_value.size(); ++code) {
    code_of[by_value[code]] = static_cast<uint32_t>(code);
    dict->push_back(std::move(values[first_rows[by_value[code]]]));
  }
  for (uint32_t& number : numbers) number = code_of[number];
  *codes = std::move(numbers);
  return true;
}

}  // namespace

Segment Segment::SealInts(std::vector<int64_t> values) {
  Segment s;
  s.type_ = ValueType::kInt;
  s.size_ = values.size();
  auto hash = [](int64_t v) { return SplitMix64(static_cast<uint64_t>(v)); };
  if (!values.empty() && EncodeDictionary(values, values.size() / 2, hash,
                                          &s.int_dict_, &s.codes_)) {
    s.encoding_ = SegmentEncoding::kDictionary;
  } else {
    s.encoding_ = SegmentEncoding::kPlain;
    s.ints_ = std::move(values);
  }
  return s;
}

Segment Segment::SealDoubles(std::vector<double> values) {
  Segment s;
  s.type_ = ValueType::kDouble;
  s.size_ = values.size();
  s.encoding_ = SegmentEncoding::kPlain;
  s.doubles_ = std::move(values);
  return s;
}

Segment Segment::SealStrings(std::vector<std::string> values) {
  Segment s;
  s.type_ = ValueType::kString;
  s.size_ = values.size();
  // std::hash over the bytes is already mixed in its low bits.
  auto hash = [](const std::string& v) { return std::hash<std::string>{}(v); };
  if (!values.empty() && EncodeDictionary(values, values.size() - 1, hash,
                                          &s.string_dict_, &s.codes_)) {
    s.encoding_ = SegmentEncoding::kDictionary;
  } else {
    s.encoding_ = SegmentEncoding::kPlain;
    s.strings_ = std::move(values);
  }
  return s;
}

ColumnRun Segment::Run(size_t row0) const {
  ColumnRun run;
  run.type = type_;
  run.encoding = encoding_;
  run.row0 = row0;
  run.length = size_;
  if (encoding_ == SegmentEncoding::kDictionary) {
    run.codes = codes_.data();
    run.int_dict = int_dict_.data();
    run.string_dict = string_dict_.data();
    run.dict_size = dict_size();
  } else {
    run.ints = ints_.data();
    run.doubles = doubles_.data();
    run.strings = strings_.data();
  }
  return run;
}

uint32_t Segment::FindCode(const Value& v) const {
  if (encoding_ != SegmentEncoding::kDictionary || v.type() != type_) {
    return kNoCode;
  }
  if (type_ == ValueType::kInt) {
    auto it = std::lower_bound(int_dict_.begin(), int_dict_.end(), v.AsInt());
    if (it == int_dict_.end() || *it != v.AsInt()) return kNoCode;
    return static_cast<uint32_t>(it - int_dict_.begin());
  }
  auto it = std::lower_bound(string_dict_.begin(), string_dict_.end(),
                             v.AsString());
  if (it == string_dict_.end() || *it != v.AsString()) return kNoCode;
  return static_cast<uint32_t>(it - string_dict_.begin());
}

size_t Segment::dict_size() const {
  if (encoding_ != SegmentEncoding::kDictionary) return 0;
  return type_ == ValueType::kInt ? int_dict_.size() : string_dict_.size();
}

size_t Segment::MemoryBytes() const {
  size_t bytes = ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(uint32_t) +
                 int_dict_.capacity() * sizeof(int64_t);
  for (const std::string& s : strings_) bytes += sizeof(s) + s.capacity();
  for (const std::string& s : string_dict_) bytes += sizeof(s) + s.capacity();
  return bytes;
}

}  // namespace cqa

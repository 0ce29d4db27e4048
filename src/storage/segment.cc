#include "storage/segment.h"

#include <algorithm>

#include "common/macros.h"

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

Value ColumnRun::ValueAt(size_t i) const {
  CQA_DCHECK(i < length);
  if (encoding == SegmentEncoding::kDictionary) {
    uint32_t code = codes[i];
    CQA_DCHECK(code < dict_size);
    if (type == ValueType::kInt) return Value(int_dict[code]);
    return Value(string_dict[code]);
  }
  switch (type) {
    case ValueType::kInt:
      return Value(ints[i]);
    case ValueType::kDouble:
      return Value(doubles[i]);
    case ValueType::kString:
      return Value(strings[i]);
  }
  return Value();
}

namespace {

/// Builds a sorted duplicate-free dictionary plus per-row codes.
template <typename T>
void BuildDictionary(const std::vector<T>& values, std::vector<T>* dict,
                     std::vector<uint32_t>* codes) {
  *dict = values;
  std::sort(dict->begin(), dict->end());
  dict->erase(std::unique(dict->begin(), dict->end()), dict->end());
  // The erase keeps the full-column allocation; a low-cardinality
  // dictionary must not pin rows*sizeof(T) of dead capacity.
  dict->shrink_to_fit();
  codes->reserve(values.size());
  for (const T& v : values) {
    auto it = std::lower_bound(dict->begin(), dict->end(), v);
    codes->push_back(static_cast<uint32_t>(it - dict->begin()));
  }
}

/// Number of distinct values (sort-based, consumes a scratch copy).
template <typename T>
size_t CountDistinct(const std::vector<T>& values) {
  std::vector<T> scratch = values;
  std::sort(scratch.begin(), scratch.end());
  return static_cast<size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

}  // namespace

Segment Segment::SealInts(std::vector<int64_t> values) {
  Segment s;
  s.type_ = ValueType::kInt;
  s.size_ = values.size();
  size_t distinct = values.empty() ? 0 : CountDistinct(values);
  if (!values.empty() && 2 * distinct <= values.size()) {
    s.encoding_ = SegmentEncoding::kDictionary;
    BuildDictionary(values, &s.int_dict_, &s.codes_);
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
  size_t distinct = values.empty() ? 0 : CountDistinct(values);
  if (!values.empty() && distinct < values.size()) {
    s.encoding_ = SegmentEncoding::kDictionary;
    BuildDictionary(values, &s.string_dict_, &s.codes_);
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

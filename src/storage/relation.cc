#include "storage/relation.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"

namespace cqa {

std::string TupleToString(const Tuple& t) {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) os << ", ";
    os << t[i];
  }
  os << ')';
  return os.str();
}

Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& positions) {
  Tuple out;
  out.reserve(positions.size());
  for (size_t pos : positions) {
    CQA_CHECK(pos < t.size());
    out.push_back(t[pos]);
  }
  return out;
}

Relation::Relation(const RelationSchema* schema, size_t chunk_capacity)
    : schema_(schema), chunk_capacity_(chunk_capacity) {
  CQA_CHECK(chunk_capacity_ > 0);
  tail_.resize(schema_->arity());
}

size_t Relation::SearchChunk(size_t row, size_t* offset) const {
  // A short chunk has another chunk after it: binary-search the starts.
  size_t lo = 0, hi = chunks_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi + 1) / 2;
    if (chunks_[mid].row0 <= row) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  *offset = row - chunks_[lo].row0;
  return lo;
}

ValueSlot Relation::TailSlot(size_t offset, size_t col) const {
  const TailColumn& tc = tail_[col];
  ValueSlot slot{};
  switch (schema_->attribute(col).type) {
    case ValueType::kInt:
      slot.i = tc.ints[offset];
      break;
    case ValueType::kDouble:
      slot.d = tc.doubles[offset];
      break;
    case ValueType::kString:
      slot.s = &tc.strings[offset];
      break;
  }
  return slot;
}

Value Relation::ValueAt(size_t row, size_t col) const {
  return SlotValue(schema_->attribute(col).type, SlotAt(row, col));
}

bool Relation::ValueEquals(size_t row, size_t col, const Value& v) const {
  const ValueType type = schema_->attribute(col).type;
  return v.type() == type && SlotEquals(type, SlotAt(row, col), SlotOf(v));
}

bool Relation::RowsEqual(size_t a, size_t b) const {
  if (a == b) return true;
  for (size_t col = 0; col < schema_->arity(); ++col) {
    if (!SlotEquals(schema_->attribute(col).type, SlotAt(a, col),
                    SlotAt(b, col))) {
      return false;
    }
  }
  return true;
}

Tuple Relation::row(size_t i) const {
  Tuple t;
  t.reserve(schema_->arity());
  for (size_t col = 0; col < schema_->arity(); ++col) {
    t.push_back(ValueAt(i, col));
  }
  return t;
}

size_t Relation::AppendRow(std::span<const FieldView> row) {
  CQA_DCHECK(row.size() == schema_->arity());
  for (size_t col = 0; col < row.size(); ++col) {
    TailColumn& tc = tail_[col];
    switch (schema_->attribute(col).type) {
      case ValueType::kInt:
        tc.ints.push_back(row[col].i);
        break;
      case ValueType::kDouble:
        tc.doubles.push_back(row[col].d);
        break;
      case ValueType::kString:
        tc.strings.emplace_back(row[col].s);
        break;
    }
  }
  ++tail_rows_;
  ++num_rows_;
  if (tail_rows_ == chunk_capacity_) SealTailChunk();
  return num_rows_ - 1;
}

size_t Relation::Insert(const Tuple& t) {
  CQA_CHECK_MSG(t.size() == schema_->arity(), schema_->name().c_str());
  // Rows up to kInlineFields wide stage on the stack.
  constexpr size_t kInlineFields = 32;
  FieldView inline_fields[kInlineFields];
  std::vector<FieldView> wide;
  std::span<FieldView> fields(inline_fields, std::min(t.size(), kInlineFields));
  if (t.size() > kInlineFields) {
    wide.resize(t.size());
    fields = wide;
  }
  for (size_t col = 0; col < t.size(); ++col) {
    CQA_CHECK_MSG(t[col].type() == schema_->attribute(col).type,
                  schema_->name().c_str());
    switch (t[col].type()) {
      case ValueType::kInt:
        fields[col].i = t[col].AsInt();
        break;
      case ValueType::kDouble:
        fields[col].d = t[col].AsDouble();
        break;
      case ValueType::kString:
        fields[col].s = t[col].AsString();
        break;
    }
  }
  return AppendRow(fields);
}

void Relation::SealTailChunk() {
  Chunk chunk;
  chunk.row0 = num_rows_ - tail_rows_;
  chunk.rows = tail_rows_;
  chunk.columns.reserve(schema_->arity());
  chunk.stats.reserve(schema_->arity());
  for (size_t col = 0; col < schema_->arity(); ++col) {
    TailColumn& tc = tail_[col];
    Segment segment;
    switch (schema_->attribute(col).type) {
      case ValueType::kInt:
        segment = Segment::SealInts(std::move(tc.ints));
        break;
      case ValueType::kDouble:
        segment = Segment::SealDoubles(std::move(tc.doubles));
        break;
      case ValueType::kString:
        segment = Segment::SealStrings(std::move(tc.strings));
        break;
    }
    tc = TailColumn();
    chunk.stats.push_back(BuildChunkColumnStats(segment));
    chunk.columns.push_back(std::move(segment));
  }
  // Only a short chunk with a chunk after it breaks row / capacity.
  if (!chunks_.empty() && chunks_.back().rows != chunk_capacity_) {
    regular_ = false;
  }
  chunks_.push_back(std::move(chunk));
  tail_rows_ = 0;
}

void Relation::SealTail() {
  if (tail_rows_ == 0) return;
  SealTailChunk();
}

void Relation::ForEachRun(
    size_t col, const std::function<void(const ColumnRun&)>& fn) const {
  CQA_CHECK(col < schema_->arity());
  for (const Chunk& chunk : chunks_) {
    fn(chunk.columns[col].Run(chunk.row0));
  }
  if (tail_rows_ > 0) {
    const TailColumn& tc = tail_[col];
    ColumnRun run;
    run.type = schema_->attribute(col).type;
    run.encoding = SegmentEncoding::kPlain;
    run.row0 = num_rows_ - tail_rows_;
    run.length = tail_rows_;
    run.ints = tc.ints.data();
    run.doubles = tc.doubles.data();
    run.strings = tc.strings.data();
    fn(run);
  }
}

namespace {

/// Per-chunk matcher of one (column, constant) conjunct: either a code
/// comparison against a dictionary segment or a typed value comparison.
struct SegmentMatcher {
  const Segment* segment = nullptr;
  const uint32_t* codes = nullptr;  // Non-null iff comparing by code.
  uint32_t code = Segment::kNoCode;
  const Value* want = nullptr;

  bool Matches(size_t offset) const {
    if (codes != nullptr) return codes[offset] == code;
    return segment->ValueEquals(offset, *want);
  }
};

}  // namespace

bool Relation::ScanMatching(const std::vector<size_t>& positions,
                            const Tuple& key,
                            const std::function<bool(size_t)>& fn) const {
  CQA_CHECK(positions.size() == key.size());
  std::vector<SegmentMatcher> matchers(positions.size());
  for (const Chunk& chunk : chunks_) {
    bool skip = false;
    for (size_t i = 0; i < positions.size() && !skip; ++i) {
      skip = !chunk.stats[positions[i]].MayContainEqual(key[i]);
    }
    if (skip) {
      std::atomic_ref<size_t>(chunks_pruned_)
          .fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Resolve dictionary codes once per chunk; an absent code proves the
    // chunk holds no match.
    for (size_t i = 0; i < positions.size() && !skip; ++i) {
      const Segment& segment = chunk.columns[positions[i]];
      matchers[i] = SegmentMatcher{&segment, nullptr, Segment::kNoCode,
                                   &key[i]};
      if (segment.encoding() == SegmentEncoding::kDictionary) {
        matchers[i].code = segment.FindCode(key[i]);
        if (matchers[i].code == Segment::kNoCode) {
          skip = true;
        } else {
          matchers[i].codes = segment.Run(chunk.row0).codes;
        }
      }
    }
    if (skip) {
      std::atomic_ref<size_t>(chunks_pruned_)
          .fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (size_t offset = 0; offset < chunk.rows; ++offset) {
      bool match = true;
      for (const SegmentMatcher& m : matchers) {
        if (!m.Matches(offset)) {
          match = false;
          break;
        }
      }
      if (match && !fn(chunk.row0 + offset)) return false;
    }
  }
  size_t tail_row0 = num_rows_ - tail_rows_;
  for (size_t offset = 0; offset < tail_rows_; ++offset) {
    bool match = true;
    for (size_t i = 0; i < positions.size() && match; ++i) {
      match = ValueEquals(tail_row0 + offset, positions[i], key[i]);
    }
    if (match && !fn(tail_row0 + offset)) return false;
  }
  return true;
}

size_t Relation::MemoryBytes() const {
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) {
    for (const Segment& segment : chunk.columns) {
      bytes += segment.MemoryBytes();
    }
  }
  for (const TailColumn& tc : tail_) {
    bytes += tc.ints.capacity() * sizeof(int64_t) +
             tc.doubles.capacity() * sizeof(double);
    for (const std::string& s : tc.strings) bytes += sizeof(s) + s.capacity();
  }
  return bytes;
}

}  // namespace cqa

#ifndef CQABENCH_COMMON_VALUE_H_
#define CQABENCH_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>

namespace cqa {

/// The type of a database value (and of a relation attribute).
enum class ValueType { kInt, kDouble, kString };

/// Returns a human-readable name ("int", "double", "string").
const char* ValueTypeName(ValueType type);

/// A single database constant: a tagged union of int64, double and string.
///
/// Values are ordered and hashable so they can serve as key components,
/// join keys and members of the active domain. Comparisons across different
/// runtime types order by type tag first (int < double < string); the
/// library never relies on cross-type numeric coercion.
class Value {
 public:
  /// Default-constructs the integer 0.
  Value() : rep_(int64_t{0}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(int v) : rep_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  // Moves dispatch on the index explicitly instead of through
  // std::variant's visitor tables: GCC 12's -Wmaybe-uninitialized cannot
  // track the discriminant through the generated visitor and flags the
  // string alternative in any TU that moves a Value. Semantics match the
  // defaulted members (the moved-from value keeps its type tag). The
  // scoped suppression below covers the reports the explicit dispatch
  // still cannot satisfy (the string reads guarded by index checks GCC
  // loses across inlining) and the defaulted special members, whose
  // variant machinery trips the same false positive; it is deliberately
  // limited to this class's special members so the warning stays live
  // everywhere else.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  ~Value() = default;

  Value(Value&& other) noexcept {
    switch (other.rep_.index()) {
      case 1:
        rep_.emplace<double>(std::get<double>(other.rep_));
        break;
      case 2:
        rep_.emplace<std::string>(std::move(std::get<std::string>(other.rep_)));
        break;
      default:
        rep_.emplace<int64_t>(std::get<int64_t>(other.rep_));
        break;
    }
  }
  Value& operator=(Value&& other) noexcept {
    switch (other.rep_.index()) {
      case 1:
        rep_.emplace<double>(std::get<double>(other.rep_));
        break;
      case 2:
        rep_.emplace<std::string>(std::move(std::get<std::string>(other.rep_)));
        break;
      default:
        rep_.emplace<int64_t>(std::get<int64_t>(other.rep_));
        break;
    }
    return *this;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_int() const { return rep_.index() == 0; }
  bool is_double() const { return rep_.index() == 1; }
  bool is_string() const { return rep_.index() == 2; }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Renders the value for debugging and table output. Strings are quoted.
  std::string ToString() const;

  size_t Hash() const;

  // Comparisons use the same explicit index dispatch as the moves above
  // (same GCC 12 visitor false positive), preserving std::variant's
  // ordering: type tag first, then value.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  friend bool operator==(const Value& a, const Value& b) {
    if (a.rep_.index() != b.rep_.index()) return false;
    switch (a.rep_.index()) {
      case 1:
        return std::get<double>(a.rep_) == std::get<double>(b.rep_);
      case 2:
        return std::get<std::string>(a.rep_) == std::get<std::string>(b.rep_);
      default:
        return std::get<int64_t>(a.rep_) == std::get<int64_t>(b.rep_);
    }
  }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.rep_.index() != b.rep_.index()) {
      return a.rep_.index() < b.rep_.index();
    }
    switch (a.rep_.index()) {
      case 1:
        return std::get<double>(a.rep_) < std::get<double>(b.rep_);
      case 2:
        return std::get<std::string>(a.rep_) < std::get<std::string>(b.rep_);
      default:
        return std::get<int64_t>(a.rep_) < std::get<int64_t>(b.rep_);
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  friend bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }

 private:
  std::variant<int64_t, double, std::string> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Combines a hash into a seed (boost::hash_combine recipe).
inline void HashCombine(size_t& seed, size_t h) {
  seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// One value in 8 bytes, as the query evaluator binds it: the int64 or the
/// double itself, or a pointer to a string stored elsewhere (a relation's
/// segment, dictionary or tail, or a Value). The type is kept beside the
/// slot, not in it. A string slot is valid as long as the string it points
/// to.
union ValueSlot {
  int64_t i;
  double d;
  const std::string* s;
};

/// The slot of `v`; a string slot points into `v`.
inline ValueSlot SlotOf(const Value& v) {
  ValueSlot slot{};
  switch (v.type()) {
    case ValueType::kInt:
      slot.i = v.AsInt();
      break;
    case ValueType::kDouble:
      slot.d = v.AsDouble();
      break;
    case ValueType::kString:
      slot.s = &v.AsString();
      break;
  }
  return slot;
}

/// Materializes a slot of `type` as a Value (copies a string).
inline Value SlotValue(ValueType type, ValueSlot slot) {
  switch (type) {
    case ValueType::kInt:
      return Value(slot.i);
    case ValueType::kDouble:
      return Value(slot.d);
    case ValueType::kString:
      return Value(*slot.s);
  }
  return Value();
}

/// Value equality on two slots of one `type`: doubles compare with ==, so
/// NaN equals nothing and ±0 are equal; strings compare by bytes.
inline bool SlotEquals(ValueType type, ValueSlot a, ValueSlot b) {
  switch (type) {
    case ValueType::kInt:
      return a.i == b.i;
    case ValueType::kDouble:
      return a.d == b.d;
    case ValueType::kString:
      return a.s == b.s || *a.s == *b.s;
  }
  return false;
}

/// True iff a slot of `type` holds a NaN, which equals no value.
inline bool SlotIsNaN(ValueType type, ValueSlot slot) {
  return type == ValueType::kDouble && std::isnan(slot.d);
}

/// A hash of a slot of `type` that agrees with SlotEquals (±0 hash alike).
/// Numbers are not mixed: fold the result through a mixer such as
/// SplitMix64 before indexing a table by its low bits.
inline uint64_t SlotHash(ValueType type, ValueSlot slot) {
  switch (type) {
    case ValueType::kInt:
      return static_cast<uint64_t>(slot.i);
    case ValueType::kDouble: {
      const double d = slot.d == 0.0 ? 0.0 : slot.d;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    case ValueType::kString:
      return std::hash<std::string_view>{}(*slot.s);
  }
  return 0;
}

}  // namespace cqa

#endif  // CQABENCH_COMMON_VALUE_H_

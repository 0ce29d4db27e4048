#ifndef CQABENCH_TESTS_FUZZ_EVALUATOR_FUZZ_DRIVER_H_
#define CQABENCH_TESTS_FUZZ_EVALUATOR_FUZZ_DRIVER_H_

// Shared driver between the libFuzzer harness (fuzz/evaluator_fuzzer.cc,
// built with CQABENCH_FUZZ=ON under clang) and the seeded gtest runner
// (tests/evaluator_fuzz_test.cc), so every corpus input exercises
// identical code in both.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "reference_evaluator.h"
#include "storage/block_index.h"

namespace cqa::fuzz {

/// Homomorphisms compared per input: both evaluators stop here.
constexpr size_t kEvaluatorFuzzLimit = 512;

/// Hands out input bytes one at a time, then zeros.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A value of `type` from one byte: small ints, doubles including ±0,
/// NaN and infinity, strings including the empty one.
inline Value DecodeValue(ValueType type, uint8_t b) {
  static const double kDoubles[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(), 0.5, 1.0, -1.5,
      std::numeric_limits<double>::infinity(), 2.0};
  static const char* const kStrings[] = {"", "a", "b", "ab", "ba"};
  switch (type) {
    case ValueType::kInt:
      return Value(static_cast<int64_t>(b % 8) - 2);
    case ValueType::kDouble:
      return Value(kDoubles[b % 8]);
    case ValueType::kString:
      return Value(kStrings[b % 5]);
  }
  return Value();
}

/// Checks each relation's block index against a pairwise oracle: the
/// relations have no key, so two rows share a block iff their tuples are
/// equal as Values (±0 equal, a NaN equal to nothing), block ids follow
/// first appearance and tuple ids row order. Returns a diagnostic, empty
/// when every relation agrees.
inline std::string DiffBlockIndexes(const Database& db) {
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const Relation& rel = db.relation(rid);
    const RelationBlockIndex index = RelationBlockIndex::Build(rel);
    std::vector<Tuple> rows;
    std::vector<size_t> block_of;
    std::vector<size_t> sizes;  // Per oracle block.
    for (size_t row = 0; row < rel.size(); ++row) {
      rows.push_back(rel.row(row));
      size_t first = 0;
      while (first < row && rows[first] != rows[row]) ++first;
      block_of.push_back(first < row ? block_of[first] : sizes.size());
      if (first == row) sizes.push_back(0);
      const BlockAnnotation ann = index.annotation(row);
      if (ann.block_id != block_of[row] ||
          ann.tuple_id != sizes[block_of[row]]++) {
        return "relation " + std::to_string(rid) + " row " +
               std::to_string(row) + ": block " +
               std::to_string(ann.block_id) + " tid " +
               std::to_string(ann.tuple_id) + ", oracle block " +
               std::to_string(block_of[row]);
      }
    }
    if (index.NumBlocks() != sizes.size()) {
      return "relation " + std::to_string(rid) + ": " +
             std::to_string(index.NumBlocks()) + " blocks, oracle " +
             std::to_string(sizes.size());
    }
    for (size_t row = 0; row < rel.size(); ++row) {
      if (index.annotation(row).block_size != sizes[block_of[row]]) {
        return "relation " + std::to_string(rid) + " row " +
               std::to_string(row) + ": wrong block size";
      }
    }
  }
  return "";
}

/// Decodes one input into a small typed instance and a query and runs
/// both evaluators on it. Layout, byte by byte (missing bytes read 0):
///   storage mode (low 2 bits: tail only, sealed, sealed then a tail,
///   sealed twice); then per relation r0..r2 its arity (1 + b % 3), each
///   column's type (b % 3), its row count (b % 17) and one byte per cell;
///   then the atom count (1 + b % 3), per atom its relation (b % 3) and
///   per term one byte t: t % 5 == 0 makes a constant of type (t / 5) % 3
///   whose value is the next byte, else variable t % 4; last, a bit mask
///   of the variables in the head (empty: a Boolean query).
/// The contract under fuzzing: every relation's block index matches the
/// pairwise oracle (DiffBlockIndexes), and CqEvaluator and the reference
/// loop produce the same homomorphism sequence, or both stop at
/// kEvaluatorFuzzLimit (testing::DiffEvaluators). A difference aborts with
/// a diagnostic, which libFuzzer and gtest both report with the offending
/// input.
/// Returns whether the query had a homomorphism.
inline bool EvaluatorInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  const uint8_t mode = in.Next() % 4;
  Schema schema;
  for (int r = 0; r < 3; ++r) {
    std::vector<Attribute> attrs(1 + in.Next() % 3);
    for (size_t c = 0; c < attrs.size(); ++c) {
      attrs[c] = {"c" + std::to_string(c),
                  static_cast<ValueType>(in.Next() % 3)};
    }
    schema.AddRelation(RelationSchema("r" + std::to_string(r), attrs));
  }
  Database db(&schema);
  std::vector<std::vector<Tuple>> rows(3);
  for (size_t r = 0; r < 3; ++r) {
    const RelationSchema& rs = schema.relation(r);
    rows[r].resize(in.Next() % 17);
    for (Tuple& t : rows[r]) {
      for (size_t c = 0; c < rs.arity(); ++c) {
        t.push_back(DecodeValue(rs.attribute(c).type, in.Next()));
      }
    }
  }
  auto insert = [&](bool first_part) {
    for (size_t r = 0; r < 3; ++r) {
      const size_t split =
          mode >= 2 ? rows[r].size() * 2 / 3 : rows[r].size();
      const size_t from = first_part ? 0 : split;
      const size_t to = first_part ? split : rows[r].size();
      for (size_t i = from; i < to; ++i) db.Insert(r, rows[r][i]);
    }
  };
  insert(true);
  if (mode != 0) db.SealStorage();
  insert(false);
  if (mode == 3) db.SealStorage();
  const std::string blocks = DiffBlockIndexes(db);
  if (!blocks.empty()) {
    std::fprintf(stderr, "block index disagrees: %s\n", blocks.c_str());
    std::abort();
  }

  ConjunctiveQuery q;
  std::vector<size_t> ids(4, SIZE_MAX);  // Variable t % 4 -> dense id.
  size_t num_vars = 0;
  const size_t atoms = 1 + in.Next() % 3;
  for (size_t a = 0; a < atoms; ++a) {
    Atom atom;
    atom.relation_id = in.Next() % 3;
    for (size_t c = 0; c < schema.relation(atom.relation_id).arity(); ++c) {
      const uint8_t t = in.Next();
      if (t % 5 == 0) {
        const auto type = static_cast<ValueType>((t / 5) % 3);
        atom.terms.push_back(Term::Const(DecodeValue(type, in.Next())));
        continue;
      }
      if (ids[t % 4] == SIZE_MAX) ids[t % 4] = num_vars++;
      atom.terms.push_back(Term::Var(ids[t % 4]));
    }
    q.AddAtom(std::move(atom));
  }
  const uint8_t mask = in.Next();
  std::vector<size_t> head;
  for (size_t v = 0; v < num_vars; ++v) {
    if (mask & (1u << v)) head.push_back(v);
  }
  q.SetAnswerVars(std::move(head));
  q.Validate(schema);

  const std::string why =
      testing::DiffEvaluators(db, q, kEvaluatorFuzzLimit);
  if (!why.empty()) {
    std::fprintf(stderr, "evaluators disagree on %s: %s\n",
                 q.ToString(schema).c_str(), why.c_str());
    std::abort();
  }
  return CqEvaluator(&db).HasAnswer(q);
}

/// libFuzzer's signature over EvaluatorInput.
inline int EvaluatorOneInput(const uint8_t* data, size_t size) {
  EvaluatorInput(data, size);
  return 0;
}

}  // namespace cqa::fuzz

#endif  // CQABENCH_TESTS_FUZZ_EVALUATOR_FUZZ_DRIVER_H_

// Differential test of the synopsis encoder: BuildSynopses and
// BuildSynopsesViaRewriting against a test-local reference that encodes
// the same homomorphism stream with straightforward containers -- a
// Tuple-keyed map of answers, a std::set of sorted fact vectors per
// synopsis, and one global set of images in database coordinates -- on
// seeded random instances and queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cqa/preprocess.h"
#include "cqa/rewriting.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/block_index.h"
#include "test_util.h"

namespace cqa {
namespace {

using GlobalCoord = std::tuple<size_t, size_t, size_t>;  // rid, bid, tid

struct RefSynopsis {
  std::vector<Synopsis::Block> blocks;
  std::vector<std::vector<Synopsis::ImageFact>> images;
};

struct RefResult {
  std::vector<Tuple> answers;
  std::vector<RefSynopsis> synopses;
  size_t num_homomorphisms = 0;
  size_t num_images = 0;
  size_t num_distinct_images = 0;
  /// Whether one block holds facts of images under two or more answers.
  bool block_shared = false;
};

/// The encoding, one homomorphism at a time: sort the image in database
/// coordinates, drop it if two facts share a block, find its answer,
/// number blocks by first appearance, and keep the sorted local image
/// unless the answer already has it.
RefResult ReferenceEncode(const Database& db, const ConjunctiveQuery& q) {
  const std::shared_ptr<const BlockIndex> index = db.block_index();
  RefResult ref;
  std::map<Tuple, size_t> answer_ids;
  std::vector<std::map<std::pair<size_t, size_t>, uint32_t>> local_blocks;
  std::vector<std::set<std::vector<Synopsis::ImageFact>>> seen;
  std::set<std::vector<GlobalCoord>> distinct;
  CqEvaluator evaluator(&db);
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    ++ref.num_homomorphisms;
    std::vector<GlobalCoord> image;
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          index->relation(f.relation_id).annotation(f.row);
      image.emplace_back(f.relation_id, ann.block_id, ann.tuple_id);
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    for (size_t i = 1; i < image.size(); ++i) {
      if (std::get<0>(image[i]) == std::get<0>(image[i - 1]) &&
          std::get<1>(image[i]) == std::get<1>(image[i - 1])) {
        return true;
      }
    }
    const Tuple answer = h.AnswerTuple(q);
    auto [it, added] = answer_ids.emplace(answer, ref.answers.size());
    if (added) {
      ref.answers.push_back(answer);
      ref.synopses.emplace_back();
      local_blocks.emplace_back();
      seen.emplace_back();
    }
    const size_t a = it->second;
    RefSynopsis& syn = ref.synopses[a];
    std::vector<Synopsis::ImageFact> facts;
    for (const auto& [rid, bid, tid] : image) {
      auto [bit, new_block] = local_blocks[a].emplace(
          std::make_pair(rid, bid), static_cast<uint32_t>(syn.blocks.size()));
      if (new_block) {
        syn.blocks.push_back(Synopsis::Block{
            static_cast<uint32_t>(index->relation(rid).block(bid).size()),
            static_cast<uint32_t>(rid), static_cast<uint32_t>(bid)});
      }
      facts.push_back(Synopsis::ImageFact{bit->second,
                                          static_cast<uint32_t>(tid)});
    }
    std::sort(facts.begin(), facts.end());
    if (seen[a].insert(facts).second) {
      syn.images.push_back(facts);
      ++ref.num_images;
      distinct.insert(image);
    }
    return true;
  });
  ref.num_distinct_images = distinct.size();
  std::map<std::pair<uint32_t, uint32_t>, std::set<size_t>> answers_of;
  for (size_t a = 0; a < ref.synopses.size(); ++a) {
    for (const Synopsis::Block& b : ref.synopses[a].blocks) {
      answers_of[{b.relation_id, b.block_id}].insert(a);
    }
  }
  for (const auto& [block, answers] : answers_of) {
    ref.block_shared |= answers.size() >= 2;
  }
  return ref;
}

/// The reference with its answers in ascending order, as Q^rew's ORDER BY
/// emits them. Each answer's homomorphisms keep their stream order.
RefResult SortedByAnswer(const RefResult& ref) {
  std::vector<size_t> order(ref.answers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ref.answers[a] < ref.answers[b];
  });
  RefResult sorted = ref;
  for (size_t i = 0; i < order.size(); ++i) {
    sorted.answers[i] = ref.answers[order[i]];
    sorted.synopses[i] = ref.synopses[order[i]];
  }
  return sorted;
}

void ExpectSame(const RefResult& ref, const PreprocessResult& got,
                const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.stats().num_homomorphisms, ref.num_homomorphisms);
  EXPECT_EQ(got.stats().num_images, ref.num_images);
  EXPECT_EQ(got.stats().num_distinct_images, ref.num_distinct_images);
  ASSERT_EQ(got.NumAnswers(), ref.answers.size());
  for (size_t a = 0; a < ref.answers.size(); ++a) {
    const Synopsis& s = got.answers()[a].synopsis;
    const RefSynopsis& r = ref.synopses[a];
    ASSERT_EQ(got.answers()[a].answer, ref.answers[a]) << "answer " << a;
    ASSERT_EQ(s.NumBlocks(), r.blocks.size()) << "answer " << a;
    for (size_t b = 0; b < r.blocks.size(); ++b) {
      EXPECT_EQ(s.blocks()[b].size, r.blocks[b].size);
      EXPECT_EQ(s.blocks()[b].relation_id, r.blocks[b].relation_id);
      EXPECT_EQ(s.blocks()[b].block_id, r.blocks[b].block_id)
          << "answer " << a << " block " << b;
    }
    ASSERT_EQ(s.NumImages(), r.images.size()) << "answer " << a;
    for (size_t i = 0; i < r.images.size(); ++i) {
      const std::span<const Synopsis::ImageFact> image = s.image(i);
      EXPECT_TRUE(std::equal(image.begin(), image.end(),
                             r.images[i].begin(), r.images[i].end()))
          << "answer " << a << " image " << i;
    }
  }
}

Schema MakeSchema() {
  Schema schema;
  schema.AddRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}, {0}));
  schema.AddRelation(RelationSchema(
      "s",
      {{"a", ValueType::kInt}, {"b", ValueType::kInt}, {"c", ValueType::kInt}},
      {0, 1}));
  schema.AddRelation(RelationSchema(
      "t", {{"a", ValueType::kInt}, {"b", ValueType::kString}}));
  schema.AddRelation(RelationSchema(
      "u", {{"a", ValueType::kInt}, {"b", ValueType::kString}}, {0}));
  return schema;
}

const char* const kStrings[] = {"x", "y", "z"};

/// Small domains make many facts share a key (duplicate-key noise); each
/// relation is empty one time in five.
void Populate(Database* db, Rng& rng) {
  const int domain = 2 + static_cast<int>(rng.UniformIndex(3));
  auto rows = [&] { return rng.Bernoulli(0.2) ? 0 : 1 + rng.UniformIndex(9); };
  for (size_t n = rows(); n > 0; --n) {
    db->Insert("r", {Value(rng.UniformInt(0, domain)),
                     Value(rng.UniformInt(0, domain))});
  }
  for (size_t n = rows(); n > 0; --n) {
    db->Insert("s", {Value(rng.UniformInt(0, domain)),
                     Value(rng.UniformInt(0, domain)),
                     Value(rng.UniformInt(0, domain))});
  }
  for (const char* rel : {"t", "u"}) {
    for (size_t n = rows(); n > 0; --n) {
      db->Insert(rel, {Value(rng.UniformInt(0, domain)),
                       Value(kStrings[rng.UniformIndex(3)])});
    }
  }
}

/// A random safe CQ: one to three atoms over variables X..W and the odd
/// constant, sometimes an atom repeated verbatim, and a head drawn from
/// the body's variables (empty: a Boolean query).
std::string RandomQuery(Rng& rng) {
  static const char* const kVars[] = {"X", "Y", "Z", "W"};
  static const struct {
    const char* name;
    std::vector<bool> is_string;
  } kRels[] = {{"r", {false, false}},
               {"s", {false, false, false}},
               {"t", {false, true}},
               {"u", {false, true}}};
  std::vector<std::string> atoms;
  std::set<std::string> used;
  const size_t num_atoms = 1 + rng.UniformIndex(3);
  for (size_t a = 0; a < num_atoms; ++a) {
    const auto& rel = kRels[rng.UniformIndex(4)];
    std::string atom = std::string(rel.name) + "(";
    for (size_t p = 0; p < rel.is_string.size(); ++p) {
      if (p > 0) atom += ", ";
      if (rng.Bernoulli(0.2)) {
        atom += rel.is_string[p]
                    ? "'" + std::string(kStrings[rng.UniformIndex(3)]) + "'"
                    : std::to_string(rng.UniformInt(0, 3));
      } else {
        // Strings and ints never share a variable: X..Y are int, Z..W
        // string.
        const std::string v = kVars[(rel.is_string[p] ? 2 : 0) +
                                    rng.UniformIndex(2)];
        used.insert(v);
        atom += v;
      }
    }
    atoms.push_back(atom + ")");
    if (rng.Bernoulli(0.2)) atoms.push_back(atoms.back());  // Verbatim.
  }
  std::string head;
  for (const std::string& v : used) {
    if (rng.Bernoulli(0.5)) head += (head.empty() ? "" : ", ") + v;
  }
  std::string text = "Q(" + head + ") :- ";
  for (size_t a = 0; a < atoms.size(); ++a) {
    text += (a > 0 ? ", " : "") + atoms[a];
  }
  return text + ".";
}

/// Whether no relation occurs in two atoms: BuildSynopses then knows
/// every image is new and keeps no image table.
bool NoRelationRepeats(const ConjunctiveQuery& q) {
  std::set<size_t> relations;
  for (const Atom& atom : q.atoms()) {
    if (!relations.insert(atom.relation_id).second) return false;
  }
  return true;
}

// Self-joins: one image can witness two answers (for the first query,
// r(1, 2) and r(2, 1) give X = 1 and X = 2 the same image).
const char* const kSelfJoins[] = {
    "Q(X) :- r(X, Y), r(Y, X).",
    "Q(X, Y) :- s(X, Y, Z), s(Y, X, Z).",
    "Q(Z) :- t(X, Z), t(Y, Z), r(X, Y).",
    "Q(X) :- u(X, Z), u(Y, Z), r(Y, X).",
};

TEST(SynopsisDifferentialTest, EncodersMatchTheReferenceOnRandomInstances) {
  const Schema schema = MakeSchema();
  size_t shared_images = 0, shared_blocks = 0, nonempty = 0,
         distinct_multi = 0;
  for (int instance = 0; instance < 240; ++instance) {
    Rng rng(7000 + instance);
    Database db(&schema);
    Populate(&db, rng);
    std::vector<std::string> queries = {RandomQuery(rng), RandomQuery(rng),
                                        kSelfJoins[instance % 4]};
    for (const std::string& text : queries) {
      const ConjunctiveQuery q = MustParseCq(schema, text);
      const RefResult ref = ReferenceEncode(db, q);
      const std::string what =
          "instance " + std::to_string(instance) + ": " + text;
      ExpectSame(ref, BuildSynopses(db, q), what + " (BuildSynopses)");
      ExpectSame(SortedByAnswer(ref), BuildSynopsesViaRewriting(db, q),
                 what + " (BuildSynopsesViaRewriting)");
      nonempty += ref.num_images > 0;
      shared_images += ref.num_distinct_images < ref.num_images;
      shared_blocks += ref.block_shared;
      distinct_multi += NoRelationRepeats(q) && ref.answers.size() >= 2;
      if (HasFailure()) return;
    }
  }
  // The generator must reach the interesting cases, or the test is weak:
  // self-joins whose answers share images, blocks holding facts of two
  // answers (each synopsis numbers them afresh), and queries without a
  // self-join, where BuildSynopses skips image deduplication, with
  // several answers.
  EXPECT_GT(nonempty, 240u);
  EXPECT_GT(shared_images, 10u);
  EXPECT_GT(shared_blocks, 50u);
  EXPECT_GT(distinct_multi, 30u);
}

}  // namespace
}  // namespace cqa

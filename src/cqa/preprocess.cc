#include "cqa/preprocess.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <unordered_set>

#include "common/id_table.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/audit.h"

namespace cqa {

namespace {

constexpr uint32_t kNoId = UINT32_MAX;

/// Groups homomorphisms by answer h(x̄) without building a Tuple for
/// each: dense answer ids in order of first appearance, deduplicated by
/// value through a hash of the answer variables' slots. Each answer keeps
/// its slots (strings point into the database) for the comparisons; a
/// Tuple is built only for a new answer.
///
/// Hashing a string slot reads the string's bytes. So when an answer
/// variable is a string, a memo first looks the answer up by the slots'
/// raw bits: the address of one stored string (a dictionary entry or a
/// plain row's value), or an int itself. Equal bits are an equal answer;
/// a miss falls back to the value table and records the bits. A double
/// answer variable bypasses the memo, because bits group doubles unlike
/// values: ±0.0 are one value, and a NaN equals nothing, not even itself.
class AnswerTable {
 public:
  explicit AnswerTable(const ConjunctiveQuery& q)
      : q_(q), vars_(q.answer_vars()), key_(vars_.size()) {}

  /// The id of h's answer; `*added` is set when h introduced it.
  uint32_t FindOrAdd(const Homomorphism& h, bool* added) {
    const size_t width = vars_.size();
    if (types_.size() != width) Classify(h);
    for (size_t k = 0; k < width; ++k) key_[k] = h.slot(vars_[k]);
    if (!memo_on_) return FindByValue(h, added);
    uint64_t hash = width;
    for (const ValueSlot slot : key_) hash = SplitMix64(hash ^ Bits(slot));
    const auto next = static_cast<uint32_t>(memo_answers_.size());
    const uint32_t entry = memo_.FindOrAdd(next, hash, [&](uint32_t other) {
      for (size_t k = 0; k < width; ++k) {
        if (memo_bits_[other * width + k] != Bits(key_[k])) return false;
      }
      return true;
    });
    if (entry != next) {
      *added = false;
      return memo_answers_[entry];
    }
    for (const ValueSlot slot : key_) memo_bits_.push_back(Bits(slot));
    memo_answers_.push_back(FindByValue(h, added));
    return memo_answers_.back();
  }

  std::vector<Tuple>& tuples() { return tuples_; }

 private:
  static uint64_t Bits(ValueSlot slot) {
    return std::bit_cast<uint64_t>(slot);
  }

  // Types are fixed for one evaluation: read them from its first answer.
  void Classify(const Homomorphism& h) {
    bool strings = false, doubles = false;
    for (size_t v : vars_) {
      types_.push_back(h.type(v));
      strings |= types_.back() == ValueType::kString;
      doubles |= types_.back() == ValueType::kDouble;
    }
    memo_on_ = strings && !doubles;
  }

  // The answer of the slots in key_, by value.
  uint32_t FindByValue(const Homomorphism& h, bool* added) {
    const size_t width = vars_.size();
    uint64_t hash = width;
    for (size_t k = 0; k < width; ++k) {
      hash = SplitMix64(hash ^ SlotHash(types_[k], key_[k]));
    }
    const auto next = static_cast<uint32_t>(tuples_.size());
    const uint32_t id = ids_.FindOrAdd(next, hash, [&](uint32_t other) {
      for (size_t k = 0; k < width; ++k) {
        if (!SlotEquals(types_[k], answer_slots_[other * width + k],
                        key_[k])) {
          return false;
        }
      }
      return true;
    });
    *added = id == next;
    if (*added) {
      answer_slots_.insert(answer_slots_.end(), key_.begin(), key_.end());
      tuples_.push_back(h.AnswerTuple(q_));
    }
    return id;
  }

  const ConjunctiveQuery& q_;
  const std::vector<size_t>& vars_;
  std::vector<ValueType> types_;
  std::vector<ValueSlot> key_;  // The current homomorphism's answer slots.
  std::vector<Tuple> tuples_;
  std::vector<ValueSlot> answer_slots_;  // Answer id × answer variable.
  IdTable ids_;
  bool memo_on_ = false;
  std::vector<uint64_t> memo_bits_;      // Memo entry × answer variable.
  std::vector<uint32_t> memo_answers_;   // Answer id per memo entry.
  IdTable memo_;
};

/// True when no relation occurs in two atoms of `q`. Then no two facts of
/// an image share a block, so every image is consistent; and an image's
/// fact of each relation is its one atom's, so two homomorphisms with the
/// same image are the same homomorphism. Every image the evaluator hands
/// on is therefore new, under its answer and across answers.
bool ImagesAreDistinct(const ConjunctiveQuery& q) {
  std::vector<size_t> relations;
  for (const Atom& atom : q.atoms()) relations.push_back(atom.relation_id);
  std::sort(relations.begin(), relations.end());
  return std::adjacent_find(relations.begin(), relations.end()) ==
         relations.end();
}

/// Audits the numbering of one BuildSynopses synopsis: blocks are
/// numbered in order of first appearance, so the blocks the images have
/// touched so far are always a prefix, and each database block has one
/// number.
bool CheckFirstAppearance(const Synopsis& synopsis, std::string* why) {
  auto fail = [&](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  uint32_t seen = 0;
  for (size_t i = 0; i < synopsis.NumImages(); ++i) {
    for (const Synopsis::ImageFact& f : synopsis.image(i)) {
      if (f.block > seen) return fail("block numbered out of first appearance");
      seen += f.block == seen;
    }
  }
  if (seen != synopsis.NumBlocks()) return fail("block in no image");
  std::vector<std::pair<uint32_t, uint32_t>> origins;
  for (const Synopsis::Block& b : synopsis.blocks()) {
    origins.emplace_back(b.relation_id, b.block_id);
  }
  std::sort(origins.begin(), origins.end());
  if (std::adjacent_find(origins.begin(), origins.end()) != origins.end()) {
    return fail("database block numbered twice");
  }
  return true;
}

/// Audits ImagesAreDistinct's premise on a finished result: no two
/// answers share an image. (CheckSynopsis, run on every synopsis, rules
/// out a repeat under one answer.)
bool CheckImagesDistinct(std::span<const AnswerSynopsis> answers,
                         size_t num_images, std::string* why) {
  if (CountDistinctImages(answers) == num_images) return true;
  if (why != nullptr) *why = "two answers share an image";
  return false;
}

}  // namespace

double PreprocessResult::Balance() const {
  if (answers_.empty() || stats_.num_distinct_images == 0) return 0.0;
  return static_cast<double>(answers_.size()) /
         static_cast<double>(stats_.num_distinct_images);
}

std::vector<FactRef> PreprocessResult::ImageFactRefs() const {
  // Dedup through a hash set (O(1) inserts vs the O(log n) of a tree),
  // then sort once: callers rely on the deterministic order.
  std::unordered_set<FactRef, FactRefHash> facts;
  for (const AnswerSynopsis& as : answers_) {
    const std::span<const Synopsis::Block> blocks = as.synopsis.blocks();
    for (const Synopsis::ImageFact& f : as.synopsis.facts()) {
      const Synopsis::Block& b = blocks[f.block];
      size_t row =
          block_index_->relation(b.relation_id).block(b.block_id)[f.tid];
      facts.insert(FactRef{b.relation_id, row});
    }
  }
  std::vector<FactRef> sorted(facts.begin(), facts.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool CanonicalizeImage(std::vector<GlobalFact>* image) {
  std::sort(image->begin(), image->end());
  image->erase(std::unique(image->begin(), image->end()), image->end());
  for (size_t i = 1; i < image->size(); ++i) {
    if ((*image)[i].relation_id == (*image)[i - 1].relation_id &&
        (*image)[i].block_id == (*image)[i - 1].block_id) {
      return false;
    }
  }
  return true;
}

SynopsisEncoder::SynopsisEncoder(const BlockIndex& index)
    : index_(index), stamps_(index.NumRelations()) {}

SynopsisBuilder SynopsisEncoder::Number(std::span<const GlobalFact> facts,
                                        size_t images) {
  CQA_CHECK(encodes_ < UINT32_MAX);
  const uint32_t synopsis = ++encodes_;
  blocks_.clear();
  local_.resize(facts.size());
  for (size_t k = 0; k < facts.size(); ++k) {
    const GlobalFact& g = facts[k];
    CQA_CHECK(g.relation_id < stamps_.size());
    const RelationBlockIndex& relation = index_.relation(g.relation_id);
    std::vector<Stamp>& stamps = stamps_[g.relation_id];
    if (stamps.empty()) stamps.resize(relation.NumBlocks());
    CQA_CHECK(g.block_id < stamps.size());
    Stamp& stamp = stamps[g.block_id];
    if (stamp.synopsis != synopsis) {
      stamp = Stamp{synopsis, static_cast<uint32_t>(blocks_.size())};
      blocks_.push_back(Synopsis::Block{
          static_cast<uint32_t>(relation.block(g.block_id).size()),
          g.relation_id, g.block_id});
    }
    local_[k] = Synopsis::ImageFact{stamp.local, g.tid};
  }
  SynopsisBuilder builder;
  builder.Reserve(blocks_.size(), images, facts.size());
  for (const Synopsis::Block& block : blocks_) builder.AddBlock(block);
  return builder;
}

Synopsis SynopsisEncoder::Encode(std::span<const GlobalFact> facts,
                                 std::span<const uint32_t> ends) {
  SynopsisBuilder builder = Number(facts, ends.size());
  size_t begin = 0;
  for (const uint32_t end : ends) {
    CQA_CHECK(begin <= end && end <= local_.size());
    builder.AddImage(std::span(local_).subspan(begin, end - begin));
    begin = end;
  }
  CQA_CHECK(begin == local_.size());
  return builder.Finish();
}

Synopsis SynopsisEncoder::EncodeDistinct(std::span<const GlobalFact> facts,
                                         size_t width) {
  CQA_CHECK(width >= 1);
  SynopsisBuilder builder = Number(facts, facts.size() / width);
  builder.AddNewImages(local_, width);
  return builder.Finish();
}

size_t CountDistinctImages(std::span<const AnswerSynopsis> answers) {
  // An image's key is its set of (relation, block, tid) facts. Local
  // block order differs between answers, so the hash sums per-fact
  // hashes (order-free) and equality matches facts pairwise: an image
  // has at most one fact per atom.
  struct Slot {
    uint32_t answer;
    uint32_t image;
    uint32_t hash;
  };
  auto global = [&](uint32_t a, const Synopsis::ImageFact& f) {
    const Synopsis::Block& b = answers[a].synopsis.blocks()[f.block];
    return std::array<uint32_t, 3>{b.relation_id, b.block_id, f.tid};
  };
  auto hash_of = [&](uint32_t a, uint32_t i) {
    uint64_t sum = 0;
    for (const Synopsis::ImageFact& f : answers[a].synopsis.image(i)) {
      const std::array<uint32_t, 3> g = global(a, f);
      sum += SplitMix64(SplitMix64((uint64_t{g[0]} << 32) | g[1]) ^ g[2]);
    }
    return static_cast<uint32_t>(SplitMix64(sum));
  };
  auto same = [&](uint32_t a, uint32_t i, uint32_t b, uint32_t j) {
    const std::span<const Synopsis::ImageFact> x = answers[a].synopsis.image(i);
    const std::span<const Synopsis::ImageFact> y = answers[b].synopsis.image(j);
    if (x.size() != y.size()) return false;
    for (const Synopsis::ImageFact& f : x) {
      const std::array<uint32_t, 3> g = global(a, f);
      bool found = false;
      for (const Synopsis::ImageFact& e : y) found |= global(b, e) == g;
      if (!found) return false;
    }
    return true;
  };

  size_t total = 0;
  for (const AnswerSynopsis& as : answers) total += as.synopsis.NumImages();
  size_t capacity = 16;
  while (capacity < 2 * total) capacity *= 2;
  std::vector<Slot> slots(capacity, Slot{kNoId, 0, 0});
  const size_t mask = capacity - 1;
  size_t distinct = 0;
  for (uint32_t a = 0; a < answers.size(); ++a) {
    for (uint32_t i = 0; i < answers[a].synopsis.NumImages(); ++i) {
      const uint32_t hash = hash_of(a, i);
      size_t s = hash & mask;
      while (slots[s].answer != kNoId &&
             !(slots[s].hash == hash &&
               same(slots[s].answer, slots[s].image, a, i))) {
        s = (s + 1) & mask;
      }
      if (slots[s].answer != kNoId) continue;  // Seen under another answer.
      slots[s] = Slot{a, i, hash};
      ++distinct;
    }
  }
  return distinct;
}

PreprocessResult BuildSynopses(const Database& db, const ConjunctiveQuery& q,
                               DatabaseIndexCache* cache) {
  Stopwatch watch;
  obs::TraceSpan span("preprocess.build_synopses");
  CQA_OBS_COUNT("preprocess.builds");
  // The columnar plane (chunk tiling, dictionaries, pruning statistics)
  // must be structurally sound before block construction trusts it.
  CQA_AUDIT(audit::CheckColumnarStorage, db);
  const std::shared_ptr<const BlockIndex> shared_index = db.block_index();
  const BlockIndex& block_index = *shared_index;
  // Synopses encode blocks by (relation, block, tid) coordinates; a block
  // structure that fails to partition the relations (for instance a
  // shared index that went stale) corrupts every estimate downstream.
  CQA_AUDIT(audit::CheckBlockPartition, db, block_index);
  PreprocessStats stats;

  // Each answer's consistent images, canonical and back to back. Where
  // no relation repeats, an image is one fact per atom in relation order,
  // consistent and new (ImagesAreDistinct): it needs no sort, no end
  // marker and no image table, and the images need no distinct count.
  const bool distinct = ImagesAreDistinct(q);
  std::vector<size_t> atoms(q.NumAtoms());
  for (size_t a = 0; a < atoms.size(); ++a) atoms[a] = a;
  std::stable_sort(atoms.begin(), atoms.end(), [&](size_t a, size_t b) {
    return q.atom(a).relation_id < q.atom(b).relation_id;
  });
  struct AnswerImages {
    std::vector<GlobalFact> facts;
    std::vector<uint32_t> ends;  // Where each image ends; self-joins only.
  };
  AnswerTable answer_table(q);
  std::vector<AnswerImages> raw;
  {
    obs::TraceSpan enumerate("preprocess.enumerate", span.id());
    CqEvaluator evaluator(&db, cache);
    std::vector<GlobalFact> image;
    evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
      ++stats.num_homomorphisms;
      image.clear();
      for (size_t a : atoms) {
        const FactRef& f = h.image[a];
        const BlockAnnotation ann =
            block_index.relation(f.relation_id).annotation(f.row);
        image.push_back(GlobalFact{static_cast<uint32_t>(f.relation_id),
                                   static_cast<uint32_t>(ann.block_id),
                                   static_cast<uint32_t>(ann.tuple_id)});
      }
      if (!distinct && !CanonicalizeImage(&image)) return true;
      bool added = false;
      const uint32_t answer = answer_table.FindOrAdd(h, &added);
      if (added) raw.emplace_back();
      AnswerImages& images = raw[answer];
      images.facts.insert(images.facts.end(), image.begin(), image.end());
      if (!distinct) {
        CQA_CHECK(images.facts.size() <= UINT32_MAX);
        images.ends.push_back(static_cast<uint32_t>(images.facts.size()));
      }
      return true;
    });
  }

  std::vector<AnswerSynopsis> answers;
  answers.reserve(raw.size());
  {
    obs::TraceSpan number("preprocess.number", span.id());
    SynopsisEncoder encoder(block_index);
    for (size_t a = 0; a < raw.size(); ++a) {
      Synopsis synopsis =
          distinct ? encoder.EncodeDistinct(raw[a].facts, atoms.size())
                   : encoder.Encode(raw[a].facts, raw[a].ends);
      raw[a] = AnswerImages();  // Numbered: free its facts now.
      CQA_AUDIT(audit::CheckSynopsis, synopsis);
      CQA_AUDIT(CheckFirstAppearance, synopsis);
      CQA_OBS_OBSERVE("preprocess.synopsis_images", synopsis.NumImages());
      CQA_OBS_OBSERVE("preprocess.synopsis_blocks", synopsis.NumBlocks());
      stats.num_images += synopsis.NumImages();
      answers.push_back(AnswerSynopsis{std::move(answer_table.tuples()[a]),
                                       std::move(synopsis)});
    }
  }
  if (distinct) {
    CQA_AUDIT(CheckImagesDistinct, answers, stats.num_images);
    stats.num_distinct_images = stats.num_images;
  } else {
    stats.num_distinct_images = CountDistinctImages(answers);
  }
  stats.seconds = watch.ElapsedSeconds();
  CQA_OBS_COUNT_N("preprocess.homomorphisms", stats.num_homomorphisms);
  CQA_OBS_COUNT_N("preprocess.consistent_images", stats.num_images);
  CQA_OBS_COUNT_N("preprocess.answers", answers.size());
  return PreprocessResult(std::move(answers), shared_index, stats);
}

}  // namespace cqa

#include "cqa/preprocess.h"

#include <algorithm>
#include <array>
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
/// each: dense answer ids in order of first appearance, deduplicated by a
/// hash of the answer variables' slots. Each answer keeps its slots
/// (strings point into the database) for the comparisons; a Tuple is
/// built only for a new answer.
class AnswerTable {
 public:
  explicit AnswerTable(const ConjunctiveQuery& q) : q_(q) {}

  /// The id of h's answer; `*added` is set when h introduced it.
  uint32_t FindOrAdd(const Homomorphism& h, bool* added) {
    const std::vector<size_t>& vars = q_.answer_vars();
    const size_t width = vars.size();
    const size_t at = answer_slots_.size();
    uint64_t hash = width;
    for (size_t v : vars) {
      answer_slots_.push_back(h.slot(v));
      hash = SplitMix64(hash ^ SlotHash(h.type(v), answer_slots_.back()));
    }
    const auto next = static_cast<uint32_t>(tuples_.size());
    const uint32_t id = ids_.FindOrAdd(next, hash, [&](uint32_t other) {
      for (size_t k = 0; k < width; ++k) {
        if (!SlotEquals(h.type(vars[k]), answer_slots_[other * width + k],
                        answer_slots_[at + k])) {
          return false;
        }
      }
      return true;
    });
    *added = id == next;
    if (*added) {
      tuples_.push_back(h.AnswerTuple(q_));
    } else {
      answer_slots_.resize(at);
    }
    return id;
  }

  std::vector<Tuple>& tuples() { return tuples_; }

 private:
  const ConjunctiveQuery& q_;
  std::vector<Tuple> tuples_;
  std::vector<ValueSlot> answer_slots_;  // Answer id × answer variable.
  IdTable ids_;
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

/// Audits ImagesAreDistinct's premise on a finished result: no synopsis
/// repeats an image and no two answers share one.
bool CheckImagesDistinct(std::span<const AnswerSynopsis> answers,
                         size_t num_images, std::string* why) {
  for (const AnswerSynopsis& as : answers) {
    if (!audit::CheckSynopsis(as.synopsis, why)) return false;
  }
  if (CountDistinctImages(answers) != num_images) {
    if (why != nullptr) *why = "two answers share an image";
    return false;
  }
  return true;
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

  // No image table and no distinct-image count where the query proves
  // every image new.
  const bool distinct = ImagesAreDistinct(q);
  AnswerTable answer_table(q);
  std::vector<SynopsisBuilder> builders;
  CqEvaluator evaluator(&db, cache);
  std::vector<GlobalFact> image;
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    ++stats.num_homomorphisms;
    // Translate the image to (rid, bid, tid) coordinates and keep it only
    // if consistent.
    image.clear();
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          block_index.relation(f.relation_id).annotation(f.row);
      image.push_back(GlobalFact{static_cast<uint32_t>(f.relation_id),
                                 static_cast<uint32_t>(ann.block_id),
                                 static_cast<uint32_t>(ann.tuple_id),
                                 static_cast<uint32_t>(ann.block_size)});
    }
    if (!CanonicalizeImage(&image)) return true;  // Inconsistent; skip.
    bool added = false;
    const uint32_t answer = answer_table.FindOrAdd(h, &added);
    if (added) builders.emplace_back();
    if (distinct) {
      builders[answer].AddNewGlobalImage(image);
      ++stats.num_images;
    } else if (builders[answer].AddGlobalImage(image)) {
      ++stats.num_images;
    }
    return true;
  });

  std::vector<AnswerSynopsis> answers;
  answers.reserve(builders.size());
  for (size_t i = 0; i < builders.size(); ++i) {
    answers.push_back(AnswerSynopsis{std::move(answer_table.tuples()[i]),
                                     builders[i].Finish()});
    CQA_OBS_OBSERVE("preprocess.synopsis_images",
                    answers[i].synopsis.NumImages());
    CQA_OBS_OBSERVE("preprocess.synopsis_blocks",
                    answers[i].synopsis.NumBlocks());
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

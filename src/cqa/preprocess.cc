#include "cqa/preprocess.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/audit.h"

namespace cqa {

namespace {

/// A fact in global (relation, block, tid) coordinates.
struct GlobalFact {
  size_t relation_id;
  size_t block_id;
  size_t tid;

  friend bool operator<(const GlobalFact& a, const GlobalFact& b) {
    if (a.relation_id != b.relation_id) return a.relation_id < b.relation_id;
    if (a.block_id != b.block_id) return a.block_id < b.block_id;
    return a.tid < b.tid;
  }
  friend bool operator==(const GlobalFact& a, const GlobalFact& b) {
    return a.relation_id == b.relation_id && a.block_id == b.block_id &&
           a.tid == b.tid;
  }
};

/// Order-insensitive only up to the sort BuildSynopses applies to every
/// image before insertion, so equal images hash equal. SplitMix64 mixes
/// each coordinate; a plain XOR would collide permuted fact sets.
struct GlobalImageHash {
  size_t operator()(const std::vector<GlobalFact>& image) const {
    uint64_t h = SplitMix64(image.size());
    for (const GlobalFact& g : image) {
      h = SplitMix64(h ^ g.relation_id);
      h = SplitMix64(h ^ g.block_id);
      h = SplitMix64(h ^ g.tid);
    }
    return static_cast<size_t>(h);
  }
};

/// Per-answer builder mapping global blocks to local synopsis blocks.
struct SynopsisBuilder {
  Synopsis synopsis;
  std::unordered_map<size_t, size_t> local_block;  // packed key -> local id

  static size_t PackKey(size_t relation_id, size_t block_id) {
    // Relations are few (< 2^10); block ids fit comfortably in 54 bits.
    return (relation_id << 54) | block_id;
  }
};

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
    const std::vector<Synopsis::Block>& blocks = as.synopsis.blocks();
    for (const Synopsis::Image& image : as.synopsis.images()) {
      for (const Synopsis::ImageFact& f : image.facts) {
        const Synopsis::Block& b = blocks[f.block];
        size_t row =
            block_index_->relation(b.relation_id).block(b.block_id)[f.tid];
        facts.insert(FactRef{b.relation_id, row});
      }
    }
  }
  std::vector<FactRef> sorted(facts.begin(), facts.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
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

  std::unordered_map<Tuple, size_t, TupleHash> answer_index;
  std::vector<AnswerSynopsis> answers;
  std::vector<SynopsisBuilder> builders;
  std::unordered_set<std::vector<GlobalFact>, GlobalImageHash>
      distinct_images;

  CqEvaluator evaluator(&db, cache);
  std::vector<GlobalFact> image;
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    ++stats.num_homomorphisms;
    // Translate the image to (rid, bid, tid) coordinates and check
    // consistency: h(Q) |= Σ iff no block receives two distinct tuples.
    image.clear();
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          block_index.relation(f.relation_id).annotation(f.row);
      image.push_back(GlobalFact{f.relation_id, ann.block_id, ann.tuple_id});
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    for (size_t i = 1; i < image.size(); ++i) {
      if (image[i].relation_id == image[i - 1].relation_id &&
          image[i].block_id == image[i - 1].block_id) {
        return true;  // Inconsistent image; skip.
      }
    }

    Tuple answer = h.AnswerTuple(q);
    auto [it, inserted] = answer_index.emplace(answer, builders.size());
    if (inserted) {
      answers.push_back(AnswerSynopsis{std::move(answer), Synopsis()});
      builders.emplace_back();
    }
    SynopsisBuilder& builder = builders[it->second];

    std::vector<Synopsis::ImageFact> local_facts;
    local_facts.reserve(image.size());
    for (const GlobalFact& g : image) {
      size_t key = SynopsisBuilder::PackKey(g.relation_id, g.block_id);
      auto [bit, block_inserted] =
          builder.local_block.emplace(key, builder.synopsis.NumBlocks());
      if (block_inserted) {
        size_t size =
            block_index.relation(g.relation_id).block(g.block_id).size();
        builder.synopsis.AddBlock(
            Synopsis::Block{size, g.relation_id, g.block_id});
      }
      local_facts.push_back(
          Synopsis::ImageFact{static_cast<uint32_t>(bit->second),
                              static_cast<uint32_t>(g.tid)});
    }
    if (builder.synopsis.AddImage(std::move(local_facts))) {
      ++stats.num_images;
      distinct_images.insert(image);
    }
    return true;
  });

  for (size_t i = 0; i < answers.size(); ++i) {
    answers[i].synopsis = std::move(builders[i].synopsis);
    CQA_OBS_OBSERVE("preprocess.synopsis_images",
                    answers[i].synopsis.NumImages());
    CQA_OBS_OBSERVE("preprocess.synopsis_blocks",
                    answers[i].synopsis.NumBlocks());
  }
  stats.num_distinct_images = distinct_images.size();
  stats.seconds = watch.ElapsedSeconds();
  CQA_OBS_COUNT_N("preprocess.homomorphisms", stats.num_homomorphisms);
  CQA_OBS_COUNT_N("preprocess.consistent_images", stats.num_images);
  CQA_OBS_COUNT_N("preprocess.answers", answers.size());
  return PreprocessResult(std::move(answers), shared_index, stats);
}

}  // namespace cqa

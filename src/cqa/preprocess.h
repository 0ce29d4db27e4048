// The preprocessing step syn_{Sigma,Q}(D): evaluates Q over D and folds
// every homomorphism into per-answer synopses (consistent images + the
// blocks they touch). A PreprocessResult is immutable once built --
// concurrent readers need no lock, which is what lets the serving
// layer's synopsis cache hand one shared_ptr<const PreprocessResult> to
// many worker threads at once (proved under TSan by
// tests/parallel_race_test.cc).
#ifndef CQABENCH_CQA_PREPROCESS_H_
#define CQABENCH_CQA_PREPROCESS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cqa/synopsis.h"
#include "query/evaluator.h"
#include "storage/block_index.h"
#include "storage/database.h"

namespace cqa {

/// A candidate answer together with its (Σ, Q)-synopsis.
struct AnswerSynopsis {
  Tuple answer;
  Synopsis synopsis;
};

struct PreprocessStats {
  /// Total homomorphisms from Q to D (consistent or not).
  size_t num_homomorphisms = 0;
  /// Σ_i |H_i|: consistent homomorphic images, counted per answer.
  size_t num_images = 0;
  /// |∪_i H_i|: globally distinct consistent images (the paper's
  /// "homomorphic size of Q w.r.t. D").
  size_t num_distinct_images = 0;
  /// Wall-clock time of the preprocessing step.
  double seconds = 0.0;
};

/// Output of the preprocessing step of §5: the set syn_{Σ,Q}(D) of pairs
/// (t̄, (H, B)), with only-positive-frequency answers included, plus a
/// reference to the block structure of the database it was computed
/// against (the database's shared index, not a copy).
class PreprocessResult {
 public:
  PreprocessResult(std::vector<AnswerSynopsis> answers,
                   std::shared_ptr<const BlockIndex> index,
                   PreprocessStats stats)
      : answers_(std::move(answers)),
        block_index_(std::move(index)),
        stats_(stats) {}

  const std::vector<AnswerSynopsis>& answers() const { return answers_; }
  const BlockIndex& block_index() const { return *block_index_; }
  const PreprocessStats& stats() const { return stats_; }

  size_t NumAnswers() const { return answers_.size(); }

  /// The balance of Q w.r.t. D (§6.1): |syn_{Σ,Q}(D)| / |∪_i H_i|, i.e.
  /// the inverse of the average synopsis size. 0 when the query is empty.
  /// A Boolean query with many images has balance close to 0; a query
  /// whose every answer has a single witnessing image has balance 1.
  double Balance() const;

  /// Distinct facts appearing in some consistent homomorphic image — the
  /// query-relevant portion of D the noise generator perturbs (§6.1).
  std::vector<FactRef> ImageFactRefs() const;

 private:
  std::vector<AnswerSynopsis> answers_;
  std::shared_ptr<const BlockIndex> block_index_;
  PreprocessStats stats_;
};

/// A homomorphic image's fact in database coordinates: tuple `tid` of
/// block `block_id` of relation `relation_id`.
struct GlobalFact {
  uint32_t relation_id = 0;
  uint32_t block_id = 0;
  uint32_t tid = 0;

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

/// Sorts a homomorphic image by (relation, block, tid) and drops repeated
/// facts (atoms mapped onto one fact). Returns false when the image is
/// inconsistent: h(Q) |= Σ iff no block receives two distinct tuples.
bool CanonicalizeImage(std::vector<GlobalFact>* image);

/// Encodes synopses one answer at a time from canonical images (see
/// CanonicalizeImage) in database coordinates. Each synopsis numbers its
/// blocks 0, 1, ... in order of first appearance, image by image and in
/// each image's canonical order, and takes their sizes from the block
/// index. A block's number lives in a dense per-relation stamp array
/// indexed by block id; each stamp also names the synopsis that wrote it,
/// so a block shared by several answers is numbered afresh by each
/// without a hash table and without clearing anything.
class SynopsisEncoder {
 public:
  /// `index` must outlive the encoder and hold every block it is given.
  explicit SynopsisEncoder(const BlockIndex& index);

  /// The synopsis of images held back to back in `facts`, image i ending
  /// at ends[i]. Repeated images are dropped (H is a set).
  Synopsis Encode(std::span<const GlobalFact> facts,
                  std::span<const uint32_t> ends);

  /// Encode for images of `width` facts each that the caller knows are
  /// pairwise distinct: no image table is kept.
  Synopsis EncodeDistinct(std::span<const GlobalFact> facts, size_t width);

 private:
  struct Stamp {
    uint32_t synopsis = 0;  // Encodes so far when written; 0: never.
    uint32_t local = 0;
  };

  // Numbers the blocks of `facts` into blocks_ and writes the facts with
  // local blocks to local_; returns a builder holding the blocks and room
  // for `images` images.
  SynopsisBuilder Number(std::span<const GlobalFact> facts, size_t images);

  const BlockIndex& index_;
  std::vector<std::vector<Stamp>> stamps_;  // Per relation, sized on use.
  uint32_t encodes_ = 0;
  // Scratch, reused across synopses.
  std::vector<Synopsis::Block> blocks_;
  std::vector<Synopsis::ImageFact> local_;
};

/// |∪_i H_i| over `answers`: their images counted once each in database
/// coordinates, however many answers hold them. One pass over the
/// finished synopses; an image appears under two answers only when two
/// homomorphisms with different answers share an image (a self-join
/// such as Q(X) :- R(X, Y), R(Y, X)).
size_t CountDistinctImages(std::span<const AnswerSynopsis> answers);

/// The preprocessing step: computes syn_{Σ,Q}(D) in one pass.
///
/// Mirrors the paper's SQL rewriting Q^rew (Appendix C): annotate every
/// fact with (rid, bid, tid, kcnt) via the database's shared block index
/// (Database::block_index, built on the first call), enumerate all
/// homomorphisms, keep the consistent images (no block mapped to two
/// distinct tuple ids), and group them by answer tuple h(x̄). Runs in time
/// polynomial in ||D|| (Lemma 4.1). Two stages, each a trace span:
/// `preprocess.enumerate` finds each consistent image's answer (by the
/// raw bits of its answer slots first, by value on a miss) and appends
/// the image to that answer's facts; `preprocess.number` then encodes the
/// answers in order through one SynopsisEncoder, freeing each answer's
/// facts once its synopsis is built.
///
/// `cache` optionally shares evaluation indexes across calls on the same
/// database.
PreprocessResult BuildSynopses(const Database& db, const ConjunctiveQuery& q,
                               DatabaseIndexCache* cache = nullptr);

}  // namespace cqa

#endif  // CQABENCH_CQA_PREPROCESS_H_

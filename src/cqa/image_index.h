// Inverted fact-to-image index shared by the indexed natural sampler and
// the KL/KLM samplers. Carries mutable per-draw hit counters: an
// ImageIndex is single-threaded scratch, so every worker builds its own
// over the (shared, immutable) Synopsis rather than sharing one.
#ifndef CQABENCH_CQA_IMAGE_INDEX_H_
#define CQABENCH_CQA_IMAGE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cqa/synopsis.h"

namespace cqa {

/// Inverted index from drawn facts to the images containing them, with
/// generation-stamped hit counters — the shared engine behind the indexed
/// natural sampler and the KL/KLM symbolic samplers.
///
/// The question every sampler answers per draw is "which images are fully
/// contained in the drawn database I?". Only conflict blocks (size >= 2)
/// can vary between databases: a size-1 block's fact is in every repair,
/// so the index leaves those facts out altogether. An image's hit counter
/// counts its facts in conflict blocks, and the image is contained in I
/// exactly when that counter reaches its conflict-fact count. An image
/// with no conflict fact at all is certain: it lies in every I, so it is
/// counted once at construction instead of per draw. The naive scan pays
/// Θ(Σ_i |H_i|) per draw; this index pays
/// Θ(#conflict blocks + Σ_{drawn conflict facts} |images containing it|).
///
/// The hit counters carry a generation stamp so starting a new draw is
/// O(1): a counter whose stamp is stale is treated as zero instead of
/// being cleared. All (block, tid) cells share one flat CSR array, so the
/// per-fact lookup is two contiguous reads with no per-block pointer
/// chase. A conflict block has cells only up to the largest tid an image
/// pins in it, plus one empty cell that every higher tid maps to, and all
/// size-1 blocks share one more empty cell. The index therefore grows
/// with the largest pinned tid of each conflict block, not with the
/// block sizes a synopsis file may declare; it is not bounded by the
/// number of facts, so a file pinning a tid near 2^32 still asks for up
/// to 16 GB, and one past 2^32 cells in all stops at a CQA_CHECK. The
/// lookup clamps the tid to the block's empty cell with a min, not a
/// branch: drawn tids are random, and a branch on them mispredicts.
///
/// Not thread-safe: each worker owns its sampler, which owns its index.
class ImageIndex {
 public:
  /// "No image" / "no block" marker of first_certain_image(),
  /// certain_witness() and the natural sampler's stop rule.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The synopsis must outlive the index.
  explicit ImageIndex(const Synopsis* synopsis);

  /// Number of certain images (no fact in a conflict block).
  size_t num_certain_images() const { return num_certain_; }

  /// The smallest certain image id, or kNone when there is none.
  uint32_t first_certain_image() const { return first_certain_; }

  /// The certain image whose last block is smallest, or kNone.
  uint32_t certain_witness() const { return certain_witness_; }

  /// The largest block index among image `image`'s facts.
  uint32_t last_block(uint32_t image) const { return last_block_[image]; }

  /// Starts a new draw, invalidating all hit counters in O(1).
  void BeginDraw() {
    if (++generation_ == 0) {
      // Generation counter wrapped: clear stamps to avoid false matches.
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      generation_ = 1;
    }
  }

  /// Registers that tuple `tid` of block `block` was drawn. For every
  /// image this fact completes (all its conflict facts now drawn this
  /// generation) `on_complete(image_id)` is invoked; when it returns true
  /// the scan stops and AddFact returns true. Returns false once the
  /// fact's list is exhausted without an early stop. A no-op on a size-1
  /// block, whose fact no list holds.
  template <typename Fn>
  bool AddFact(uint32_t block, uint32_t tid, Fn&& on_complete) {
    const BlockCells& cells = block_cells_[block];
    const size_t cell = cells.base + std::min(tid, cells.limit);
    const uint32_t begin = cell_offsets_[cell];
    const uint32_t end = cell_offsets_[cell + 1];
    for (uint32_t p = begin; p < end; ++p) {
      const uint32_t image = images_[p];
      if (stamp_[image] != generation_) {
        stamp_[image] = generation_;
        hits_[image] = 0;
      }
      if (++hits_[image] == conflict_sizes_[image] && on_complete(image)) {
        return true;
      }
    }
    return false;
  }

  /// BeginDraw + AddFact over the conflict blocks of a fully drawn
  /// database: reports every non-certain image `choice` contains. The
  /// certain images are contained too but are never reported. Returns
  /// true iff an on_complete call stopped the scan.
  template <typename Fn>
  bool ForEachCompletedImage(const Synopsis::Choice& choice,
                             Fn&& on_complete) {
    BeginDraw();
    for (uint32_t b : conflict_blocks_) {
      if (AddFact(b, choice[b], on_complete)) return true;
    }
    return false;
  }

 private:
  // The blocks of size >= 2, ascending: the only blocks a draw can vary.
  std::vector<uint32_t> conflict_blocks_;
  // A block's cells: tid t owns cell base + min(t, limit), where `limit`
  // is one past the largest tid an image pins there, so cell base + limit
  // is empty. A size-1 block has limit 0 and the shared empty cell.
  struct BlockCells {
    uint32_t base = 0;
    uint32_t limit = 0;
  };
  // Flat CSR over the conflict facts: the images containing (block b,
  // tuple t) live at images_[cell_offsets_[c] .. cell_offsets_[c + 1])
  // for b's cell c of t.
  std::vector<BlockCells> block_cells_;
  std::vector<uint32_t> cell_offsets_;
  std::vector<uint32_t> images_;
  // Per image: its number of facts in conflict blocks, and its last block.
  std::vector<uint32_t> conflict_sizes_;
  std::vector<uint32_t> last_block_;
  size_t num_certain_ = 0;
  uint32_t first_certain_ = kNone;
  uint32_t certain_witness_ = kNone;
  // Per-draw scratch: hit counters valid only for the current generation.
  std::vector<uint32_t> hits_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
};

/// Packs the per-block uniform tid draws of one sample into as few engine
/// words as possible. A draw needs one tid per block, uniform in
/// [0, |block|); the blocks of a synopsis are typically tiny (a handful of
/// candidate tuples), so burning a full 64-bit engine word per block — the
/// dominant cost of the old sampler loops — wastes almost all of its
/// entropy. Instead the plan treats one engine word as a fixed-point
/// fraction f ∈ [0, 1) and peels digits off it: tid = ⌊f·s⌋ and
/// f ← frac(f·s) consumes log2(s) bits, so one word covers ~Σ log2(s_b)
/// bits of blocks.
///
/// The precomputed refill schedule pulls a fresh word whenever fewer than
/// 32 bits of granularity would remain, bounding the relative bias of
/// every tid below 2^-32 — invisible next to the O(ε) Monte-Carlo error,
/// and orders of magnitude below what the distribution tests could
/// detect. Blocks of size 1 consume no entropy at all: Next on one takes
/// no engine word, returns 0 and leaves the Stream unchanged, so a loop
/// over conflict_blocks() alone consumes exactly the engine words of a
/// loop over every block.
class TidDigitPlan {
 public:
  TidDigitPlan() = default;
  explicit TidDigitPlan(const Synopsis* synopsis);

  /// Per-sample extraction state; value-initialize one per draw.
  struct Stream {
    uint64_t f = 0;
  };

  /// The blocks of size >= 2, ascending: the only ones Next draws from.
  const std::vector<uint32_t>& conflict_blocks() const {
    return conflict_blocks_;
  }

  /// True iff Next on block `b` takes a fresh engine word.
  bool Refills(size_t b) const { return refill_[b] != 0; }

  /// The tid for block `b`, uniform in [0, sizes[b]). Blocks must be
  /// visited in index order from a fresh Stream (the refill schedule is
  /// positional), but stopping early and skipping size-1 blocks is fine.
  uint32_t Next(Rng& rng, size_t b, Stream* s) const {
    if (refill_[b]) s->f = rng.engine()();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(s->f) * sizes_[b];
    s->f = static_cast<uint64_t>(m);
    return static_cast<uint32_t>(m >> 64);
  }

 private:
  std::vector<uint32_t> conflict_blocks_;
  std::vector<uint32_t> sizes_;
  std::vector<uint8_t> refill_;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_IMAGE_INDEX_H_

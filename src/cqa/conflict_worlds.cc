#include "cqa/conflict_worlds.h"

#include <span>

#include "common/macros.h"
#include "cqa/image_index.h"
#include "cqa/invariants.h"

namespace cqa {

bool ConflictWorldTable::Eligible(const Synopsis& synopsis) {
  if (synopsis.Empty() || synopsis.NumImages() > kMaxImages) return false;
  // Sizes are below 2^32 and the product stays <= 2^12 until it stops,
  // so 64 bits never overflow.
  uint64_t worlds = 1;
  for (const Synopsis::Block& b : synopsis.blocks()) {
    if (b.size < 2) continue;
    worlds *= b.size;
    if (worlds > kMaxWorlds) return false;
  }
  return true;
}

ConflictWorldTable::ConflictWorldTable(const Synopsis* synopsis)
    : synopsis_(synopsis) {
  CQA_CHECK(synopsis != nullptr);
  CQA_CHECK_MSG(Eligible(*synopsis), "synopsis too large for a world table");
  const std::span<const Synopsis::Block> blocks = synopsis->blocks();
  const size_t num_images = synopsis->NumImages();

  // Number the conflict blocks and lay out their digits: P_c grows from
  // the front, the strides from the back.
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> ordinal(blocks.size(), kNone);
  uint32_t num_masks = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].size < 2) continue;
    ordinal[b] = static_cast<uint32_t>(conflict_.size());
    conflict_.push_back(ConflictBlock{static_cast<uint32_t>(b),
                                      blocks[b].size, num_worlds_, 0,
                                      num_masks});
    num_worlds_ *= blocks[b].size;
    num_masks += blocks[b].size;
  }
  uint32_t stride = 1;
  for (size_t c = conflict_.size(); c-- > 0;) {
    conflict_[c].stride = stride;
    stride *= conflict_[c].size;
  }
  // The identity World(u) relies on: the digit plan takes its only word
  // at the first conflict block.
  const TidDigitPlan plan(synopsis);
  for (size_t c = 0; c < conflict_.size(); ++c) {
    CQA_CHECK(plan.Refills(conflict_[c].block) == (c == 0));
  }

  // Each image joins the tid mask of every conflict fact it pins; the
  // images that pin nothing in a block then join all of its tid masks.
  tid_masks_.assign(num_masks, 0);
  std::vector<uint64_t> pinned(conflict_.size(), 0);
  const uint32_t first_conflict =
      conflict_.empty() ? kNone : conflict_.front().block;
  pin_offsets_.resize(num_images + 1);
  for (size_t i = 0; i < num_images; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    pin_offsets_[i] = static_cast<uint32_t>(pins_.size());
    for (const Synopsis::ImageFact& f : synopsis->image(i)) {
      const uint32_t c = ordinal[f.block];
      if (c == kNone) continue;
      const ConflictBlock& cb = conflict_[c];
      pinned[c] |= bit;
      tid_masks_[cb.masks + f.tid] |= bit;
      pins_.push_back(Pin{cb.prefix, cb.size, cb.stride, f.tid});
    }
    // A certain image; facts are sorted by block, so back() is its last.
    if (pins_.size() == pin_offsets_[i] &&
        synopsis->image(i).back().block < first_conflict) {
      certain_before_conflict_ = true;
    }
  }
  pin_offsets_[num_images] = static_cast<uint32_t>(pins_.size());
  const uint64_t all_images = (uint64_t{1} << num_images) - 1;
  for (size_t c = 0; c < conflict_.size(); ++c) {
    const ConflictBlock& cb = conflict_[c];
    for (uint32_t t = 0; t < cb.size; ++t) {
      tid_masks_[cb.masks + t] |= all_images & ~pinned[c];
    }
  }
  masks_.assign(num_worlds_, 0);
}

uint64_t ConflictWorldTable::Fill(uint32_t w) {
  uint64_t mask = ~uint64_t{0};
  for (const ConflictBlock& cb : conflict_) {
    mask &= tid_masks_[cb.masks + w / cb.stride % cb.size];
  }
  // With no conflict block the AND is empty: every image is certain.
  mask = (mask & ((uint64_t{1} << synopsis_->NumImages()) - 1)) | kFilled;
  CQA_AUDIT(audit::CheckWorldMask, *this, w, mask);
  masks_[w] = mask;
  return mask;
}

void ConflictWorldTable::Decode(uint32_t w, Synopsis::Choice* choice) const {
  choice->assign(synopsis_->NumBlocks(), 0);
  for (const ConflictBlock& cb : conflict_) {
    (*choice)[cb.block] = w / cb.stride % cb.size;
  }
}

}  // namespace cqa

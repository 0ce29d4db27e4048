#include "cqa/image_index.h"

#include <algorithm>

#include "common/macros.h"

namespace cqa {

ImageIndex::ImageIndex(const Synopsis* synopsis) {
  CQA_CHECK(synopsis != nullptr);
  const std::span<const Synopsis::Block> blocks = synopsis->blocks();
  const size_t num_images = synopsis->NumImages();

  // Lay the cells of the conflict blocks out back to back: each block's
  // up to the largest tid an image pins in it, then one empty cell for
  // the higher tids. Every size-1 block maps to one more cell, `spill`,
  // after them, so the two passes below (count list lengths into the
  // offsets, prefix-sum, fill) run without a per-fact branch; the spill
  // cell is emptied after.
  block_cells_.resize(blocks.size());
  for (const Synopsis::ImageFact& f : synopsis->facts()) {
    if (blocks[f.block].size < 2) continue;
    uint32_t& limit = block_cells_[f.block].limit;
    limit = std::max(limit, f.tid + 1);
  }
  size_t spill = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].size < 2) continue;
    conflict_blocks_.push_back(static_cast<uint32_t>(b));
    block_cells_[b].base = static_cast<uint32_t>(spill);
    spill += size_t{block_cells_[b].limit} + 1;
    // Cell numbers are 32-bit, and cell_offsets_ holds spill + 2 of
    // them. A file that pins tids this close to 2^32 stops here, before
    // anything is allocated; below the bound it can still ask for up to
    // 16 GB of offsets.
    CQA_CHECK_MSG(spill + 2 <= UINT32_MAX, "image index past 2^32 cells");
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].size < 2) {
      block_cells_[b].base = static_cast<uint32_t>(spill);
    }
  }
  const auto cell = [this](const Synopsis::ImageFact& f) -> size_t {
    const BlockCells& cells = block_cells_[f.block];
    return cells.base + std::min(f.tid, cells.limit);
  };
  cell_offsets_.assign(spill + 2, 0);
  conflict_sizes_.resize(num_images);
  last_block_.resize(num_images);
  for (uint32_t i = 0; i < num_images; ++i) {
    const std::span<const Synopsis::ImageFact> image = synopsis->image(i);
    uint32_t conflict = 0;
    for (const Synopsis::ImageFact& f : image) {
      conflict += blocks[f.block].size >= 2;
      ++cell_offsets_[cell(f) + 1];
    }
    conflict_sizes_[i] = conflict;
    // Facts are sorted by block, so the last one sits in the last block.
    last_block_[i] = image.back().block;
  }
  for (size_t c = 1; c < cell_offsets_.size(); ++c) {
    cell_offsets_[c] += cell_offsets_[c - 1];
  }
  images_.resize(cell_offsets_.back());
  std::vector<uint32_t> fill_pos(cell_offsets_.begin(),
                                 cell_offsets_.end() - 1);
  for (uint32_t i = 0; i < num_images; ++i) {
    for (const Synopsis::ImageFact& f : synopsis->image(i)) {
      images_[fill_pos[cell(f)]++] = i;
    }
  }
  // Drop the size-1 facts: AddFact on a size-1 block now finds no list.
  images_.resize(cell_offsets_[spill]);
  cell_offsets_[spill + 1] = cell_offsets_[spill];

  // An image with no conflict fact is certain: every database holds it.
  for (uint32_t i = 0; i < num_images; ++i) {
    if (conflict_sizes_[i] > 0) continue;
    ++num_certain_;
    if (first_certain_ == kNone) first_certain_ = i;
    if (certain_witness_ == kNone ||
        last_block_[i] < last_block_[certain_witness_]) {
      certain_witness_ = i;
    }
  }
  hits_.assign(num_images, 0);
  stamp_.assign(num_images, 0);
}

TidDigitPlan::TidDigitPlan(const Synopsis* synopsis) {
  CQA_CHECK(synopsis != nullptr);
  const std::span<const Synopsis::Block> blocks = synopsis->blocks();
  sizes_.reserve(blocks.size());
  refill_.assign(blocks.size(), 0);
  // Granularity left in the current word; starts exhausted so the first
  // entropy-consuming block always pulls a fresh word.
  unsigned __int128 capacity = 0;
  constexpr unsigned __int128 kFull = static_cast<unsigned __int128>(1)
                                      << 64;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t s = blocks[b].size;
    CQA_CHECK(s > 0 && s <= UINT32_MAX);
    sizes_.push_back(static_cast<uint32_t>(s));
    if (s == 1) continue;  // tid is always 0: no entropy needed.
    conflict_blocks_.push_back(static_cast<uint32_t>(b));
    // Keep >= 32 bits of granularity after extracting this digit.
    if (capacity < (static_cast<unsigned __int128>(s) << 32)) {
      refill_[b] = 1;
      capacity = kFull;
    }
    capacity /= s;
  }
}

}  // namespace cqa

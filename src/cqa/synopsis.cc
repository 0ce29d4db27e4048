#include "cqa/synopsis.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/rng.h"

namespace cqa {

namespace {

constexpr uint32_t kNoId = UINT32_MAX;

uint64_t HashImage(std::span<const Synopsis::ImageFact> facts) {
  uint64_t h = facts.size();
  for (const Synopsis::ImageFact& f : facts) {
    h = SplitMix64(h ^ ((uint64_t{f.block} << 32) | f.tid));
  }
  return h;
}

}  // namespace

double Synopsis::LogDbSize() const {
  double log_size = 0.0;
  for (const Block& b : blocks_) {
    log_size += std::log10(static_cast<double>(b.size));
  }
  return log_size;
}

std::vector<double> Synopsis::ImageWeights() const {
  std::vector<double> weights;
  weights.reserve(NumImages());
  for (size_t i = 0; i < NumImages(); ++i) {
    double w = 1.0;
    for (const ImageFact& f : image(i)) {
      w /= static_cast<double>(blocks_[f.block].size);
    }
    weights.push_back(w);
  }
  return weights;
}

double Synopsis::SymbolicToNaturalFactor() const {
  double total = 0.0;
  for (double w : ImageWeights()) total += w;
  return total;
}

bool Synopsis::ImageContainedIn(size_t i, const Choice& choice) const {
  CQA_CHECK(i < NumImages());
  for (const ImageFact& f : image(i)) {
    if (choice[f.block] != f.tid) return false;
  }
  return true;
}

bool Synopsis::AnyImageContainedIn(const Choice& choice) const {
  for (size_t i = 0; i < NumImages(); ++i) {
    if (ImageContainedIn(i, choice)) return true;
  }
  return false;
}

std::string Synopsis::DebugString() const {
  std::ostringstream os;
  os << "Synopsis{blocks=[";
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (b > 0) os << ", ";
    os << blocks_[b].size;
  }
  os << "], images=[";
  for (size_t i = 0; i < NumImages(); ++i) {
    if (i > 0) os << ", ";
    os << '{';
    const std::span<const ImageFact> facts = image(i);
    for (size_t j = 0; j < facts.size(); ++j) {
      if (j > 0) os << ' ';
      os << facts[j].block << ':' << facts[j].tid;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void SynopsisBuilder::Reserve(size_t blocks, size_t images, size_t facts) {
  synopsis_.blocks_.reserve(blocks);
  if (images > 0) synopsis_.image_offsets_.reserve(images + 1);
  synopsis_.facts_.reserve(facts);
}

uint32_t SynopsisBuilder::AddBlock(Synopsis::Block block) {
  CQA_CHECK(block.size >= 1);
  CQA_CHECK(synopsis_.blocks_.size() < kNoId);
  synopsis_.blocks_.push_back(block);
  return static_cast<uint32_t>(synopsis_.blocks_.size() - 1);
}

bool SynopsisBuilder::AddImage(std::span<const Synopsis::ImageFact> facts) {
  const size_t begin = AppendFacts(facts);
  const std::span<const Synopsis::ImageFact> image = SortImage(begin);
  CQA_CHECK_MSG(image_ids_.size() == NumImages(),
                "a deduplicating add on a builder given AddNewImages");
  const uint32_t id = static_cast<uint32_t>(NumImages());
  if (image_ids_.FindOrAdd(id, HashImage(image), [&](uint32_t other) {
        return std::ranges::equal(synopsis_.image(other), image);
      }) != id) {
    synopsis_.facts_.resize(begin);  // H is a set: drop the repeat.
    return false;
  }
  EndImage();
  return true;
}

void SynopsisBuilder::AddNewImages(std::span<const Synopsis::ImageFact> facts,
                                   size_t width) {
  CQA_CHECK_MSG(image_ids_.size() == 0,
                "AddNewImages on a builder that deduplicates images");
  CQA_CHECK(width >= 1 && facts.size() % width == 0);
  for (size_t at = 0; at < facts.size(); at += width) {
    SortImage(AppendFacts(facts.subspan(at, width)));
    EndImage();
  }
}

size_t SynopsisBuilder::AppendFacts(
    std::span<const Synopsis::ImageFact> facts) {
  const size_t begin = synopsis_.facts_.size();
  synopsis_.facts_.insert(synopsis_.facts_.end(), facts.begin(), facts.end());
  return begin;
}

Synopsis SynopsisBuilder::Finish() {
  image_ids_ = IdTable();
  synopsis_.blocks_.shrink_to_fit();
  synopsis_.image_offsets_.shrink_to_fit();
  synopsis_.facts_.shrink_to_fit();
  Synopsis done = std::move(synopsis_);
  synopsis_ = Synopsis();
  return done;
}

std::span<const Synopsis::ImageFact> SynopsisBuilder::SortImage(
    size_t begin) {
  std::vector<Synopsis::ImageFact>& facts = synopsis_.facts_;
  const auto first = facts.begin() + static_cast<ptrdiff_t>(begin);
  CQA_CHECK_MSG(first != facts.end(),
                "an image must contain at least one fact");
  if (facts.end() - first > 1) {
    std::sort(first, facts.end());
    facts.erase(std::unique(first, facts.end()), facts.end());
  }
  const std::span<const Synopsis::ImageFact> image(facts.data() + begin,
                                                   facts.size() - begin);
  const std::vector<Synopsis::Block>& blocks = synopsis_.blocks_;
  for (size_t i = 0; i < image.size(); ++i) {
    CQA_CHECK(image[i].block < blocks.size());
    CQA_CHECK(image[i].tid < blocks[image[i].block].size);
    if (i > 0) {
      CQA_CHECK_MSG(image[i].block != image[i - 1].block,
                    "inconsistent image: two facts in one block");
    }
  }
  return image;
}

void SynopsisBuilder::EndImage() {
  const std::vector<Synopsis::ImageFact>& facts = synopsis_.facts_;
  CQA_CHECK(facts.size() <= UINT32_MAX && NumImages() + 1 < kNoId);
  std::vector<uint32_t>& offsets = synopsis_.image_offsets_;
  if (offsets.empty()) offsets.push_back(0);
  offsets.push_back(static_cast<uint32_t>(facts.size()));
}

}  // namespace cqa

#include "cqa/synopsis.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/rng.h"

namespace cqa {

namespace {

constexpr uint32_t kNoId = UINT32_MAX;
constexpr size_t kFirstSlots = 16;

// Table slots index by the hash's low bits; the image table also keeps
// all 32 as a tag, so the hash is folded to 32 bits first.
uint32_t HashImage(std::span<const Synopsis::ImageFact> facts) {
  uint64_t h = facts.size();
  for (const Synopsis::ImageFact& f : facts) {
    h = SplitMix64(h ^ ((uint64_t{f.block} << 32) | f.tid));
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
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
  CQA_CHECK_MSG(!image_slots_.empty() || NumImages() == 0,
                "a deduplicating add on a builder given AddNewImages");
  if ((NumImages() + 1) * 2 > image_slots_.size()) GrowImageSlots();
  const uint32_t hash = HashImage(image);
  const size_t mask = image_slots_.size() - 1;
  size_t s = hash & mask;
  for (; image_slots_[s].id != kNoId; s = (s + 1) & mask) {
    if (image_slots_[s].hash == hash &&
        std::ranges::equal(synopsis_.image(image_slots_[s].id), image)) {
      synopsis_.facts_.resize(begin);  // H is a set: drop the repeat.
      return false;
    }
  }
  EndImage();
  image_slots_[s] = ImageSlot{static_cast<uint32_t>(NumImages() - 1), hash};
  return true;
}

void SynopsisBuilder::AddNewImages(std::span<const Synopsis::ImageFact> facts,
                                   size_t width) {
  CQA_CHECK_MSG(image_slots_.empty(),
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
  image_slots_ = std::vector<ImageSlot>();
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

void SynopsisBuilder::GrowImageSlots() {
  std::vector<ImageSlot> old = std::move(image_slots_);
  image_slots_.assign(std::max(kFirstSlots, old.size() * 2),
                      ImageSlot{kNoId, 0});
  const size_t mask = image_slots_.size() - 1;
  for (const ImageSlot& slot : old) {
    if (slot.id == kNoId) continue;
    size_t s = slot.hash & mask;
    while (image_slots_[s].id != kNoId) s = (s + 1) & mask;
    image_slots_[s] = slot;
  }
}

}  // namespace cqa

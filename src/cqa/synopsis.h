// The encoded admissible pair (H, B): blocks with cardinalities plus
// consistent homomorphic images as (block, tid) fact lists, stored flat.
// Immutable once built and therefore safe to share across any number of
// concurrent scheme runs -- samplers and spaces keep their mutable
// scratch elsewhere (see image_index.h). The serving layer relies on
// this to serve cached synopses lock-free. SynopsisBuilder is the one way
// to make a synopsis.
#ifndef CQABENCH_CQA_SYNOPSIS_H_
#define CQABENCH_CQA_SYNOPSIS_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/id_table.h"

namespace cqa {

/// The admissible pair (H, B) of §4.1 in encoded form (§5 / Appendix C).
///
/// A synopsis collects, for one candidate answer t̄, the consistent
/// homomorphic images H of Q(t̄) in D and the blocks B of the facts those
/// images touch. The approximation schemes are oblivious to the syntactic
/// shape of facts, so the encoding keeps only:
///   * per block: its cardinality (`kcnt`) plus its origin (relation id +
///     block id within the relation) for traceability;
///   * per image: the facts it contains, each as (local block index,
///     tuple id within the block).
/// Facts of a block that appear in no image are represented implicitly by
/// the block cardinality — exactly the integer-identifier encoding
/// enc(syn) the paper derives from the SQL rewriting Q^rew.
///
/// Layout: enc(syn) sorted by image, in CSR form. Three flat arrays hold
/// everything: `blocks_` (one 12-byte Block per block), `facts_` (every
/// image's facts back to back, 8 bytes each) and `image_offsets_` (image
/// i is facts_[image_offsets_[i], image_offsets_[i + 1]), so NumImages()
/// + 1 entries, or none when there is no image). An image therefore costs
/// 4 bytes plus 8 per fact, and image(i) is a span into `facts_`. The
/// hash table that deduplicates images while building lives in
/// SynopsisBuilder, which frees it in Finish(); a Synopsis never holds
/// one.
class Synopsis {
 public:
  /// A block of B. `size` >= 1; tuple ids within the block are
  /// [0, size). (relation_id, block_id) locate the block in the database's
  /// BlockIndex (useful for debugging and the noise generator), which
  /// keeps relations below 2^32 rows, so 32 bits hold every field.
  struct Block {
    uint32_t size = 0;
    uint32_t relation_id = 0;
    uint32_t block_id = 0;
  };

  /// One fact of an image: tuple `tid` of local block `block`.
  struct ImageFact {
    uint32_t block = 0;
    uint32_t tid = 0;

    friend bool operator==(const ImageFact& a, const ImageFact& b) {
      return a.block == b.block && a.tid == b.tid;
    }
    friend bool operator<(const ImageFact& a, const ImageFact& b) {
      if (a.block != b.block) return a.block < b.block;
      return a.tid < b.tid;
    }
  };

  std::span<const Block> blocks() const { return blocks_; }
  size_t NumBlocks() const { return blocks_.size(); }
  size_t NumImages() const {
    return image_offsets_.empty() ? 0 : image_offsets_.size() - 1;
  }
  bool Empty() const { return NumImages() == 0; }

  /// The consistent homomorphic image H_i: its facts sorted by block, at
  /// most one fact per block (consistency), non-empty, duplicate-free.
  std::span<const ImageFact> image(size_t i) const {
    return {facts_.data() + image_offsets_[i],
            facts_.data() + image_offsets_[i + 1]};
  }

  /// Every image's facts back to back, image 0 first: Σ_i |H_i| entries.
  std::span<const ImageFact> facts() const { return facts_; }

  /// log10 |db(B)| = Σ log10(block size).
  double LogDbSize() const;

  /// w_i = |I_i| / |db(B)| = Π_{blocks of image i} 1/size, for each image.
  /// These drive the symbolic sampling space: |S•|/|db(B)| = Σ_i w_i.
  std::vector<double> ImageWeights() const;

  /// Σ_i w_i (the factor converting symbolic estimates back to R(H, B)).
  double SymbolicToNaturalFactor() const;

  /// A "choice" is one database of db(B): one tuple id per block.
  using Choice = std::vector<uint32_t>;

  /// True iff image `i` is contained in the database selected by `choice`.
  bool ImageContainedIn(size_t i, const Choice& choice) const;

  /// True iff some image is contained in the selected database.
  bool AnyImageContainedIn(const Choice& choice) const;

  std::string DebugString() const;

 private:
  friend class SynopsisBuilder;

  std::vector<Block> blocks_;
  std::vector<uint32_t> image_offsets_;
  std::vector<ImageFact> facts_;
};

/// Builds one Synopsis, the only way to make one: blocks first (AddBlock),
/// then images over them. Preprocessing numbers database blocks itself
/// (SynopsisEncoder in preprocess.h) and hands the builder local ones.
///
/// Each image's facts are written straight to the tail of the packed fact
/// array and sorted there. AddImage deduplicates them through an IdTable
/// of image ids (H is a set); a caller that knows every image is new adds
/// them with AddNewImages, and the builder keeps no image table at all.
/// Reserve sizes the arrays for a caller that knows the counts; Finish()
/// frees the table and trims every array to its size.
class SynopsisBuilder {
 public:
  SynopsisBuilder() = default;

  size_t NumBlocks() const { return synopsis_.NumBlocks(); }
  size_t NumImages() const { return synopsis_.NumImages(); }
  std::span<const Synopsis::Block> blocks() const {
    return synopsis_.blocks();
  }

  /// Reserves room for `blocks` blocks and `images` images of `facts`
  /// facts in all.
  void Reserve(size_t blocks, size_t images, size_t facts);

  /// Appends a block and returns its local index. Aborts if its size is 0.
  uint32_t AddBlock(Synopsis::Block block);

  /// Adds an image. `facts` need not be sorted; duplicates are removed.
  /// Aborts if the image maps two distinct facts into one block (it would
  /// not be consistent) or references an unknown block/tid.
  /// Returns false if an identical image was already present (H is a set).
  bool AddImage(std::span<const Synopsis::ImageFact> facts);
  bool AddImage(std::initializer_list<Synopsis::ImageFact> facts) {
    return AddImage(std::span(facts.begin(), facts.size()));
  }

  /// AddImage for facts.size() / width images of `width` facts each,
  /// back to back in `facts`, that the caller knows are new: no image
  /// table is kept or probed. A builder given this never takes a
  /// deduplicating add, and the other way round (either aborts).
  void AddNewImages(std::span<const Synopsis::ImageFact> facts, size_t width);

  /// Frees the build-time table, trims every array to its size and
  /// returns the synopsis. The builder is empty afterwards.
  Synopsis Finish();

 private:
  // Appends `facts` to the packed fact array; returns where they begin.
  size_t AppendFacts(std::span<const Synopsis::ImageFact> facts);
  // Sorts, dedups and checks the facts appended after `begin`.
  std::span<const Synopsis::ImageFact> SortImage(size_t begin);
  // Ends the image whose facts close the packed fact array.
  void EndImage();

  Synopsis synopsis_;
  IdTable image_ids_;  // Empty unless AddImage deduplicates.
};

}  // namespace cqa

#endif  // CQABENCH_CQA_SYNOPSIS_H_

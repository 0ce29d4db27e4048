// Conflict-world tables: on a synopsis with few images and few joint tid
// choices over its blocks of size >= 2, a draw of any scheme reduces to
// one lookup of the images its drawn tids contain. A table carries
// mutable, lazily filled entries, so it is per-sampler scratch like
// ImageIndex: every worker builds its own.
#ifndef CQABENCH_CQA_CONFLICT_WORLDS_H_
#define CQABENCH_CQA_CONFLICT_WORLDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "cqa/invariants.h"
#include "cqa/symbolic_space.h"
#include "cqa/synopsis.h"

namespace cqa {

/// The images each conflict world of a small synopsis contains, as one
/// 64-bit mask per world, filled the first time a draw reaches the world.
///
/// Only the conflict blocks (size >= 2) vary between the databases a
/// scheme draws; call one joint choice of their tids a conflict world.
/// When they multiply out to S <= kMaxWorlds worlds, TidDigitPlan draws
/// every conflict tid from one engine word u: it refills at the first
/// conflict block and never again (the constructor checks this). With
/// s_c the size of conflict block c and P_c the product of the earlier
/// sizes, the plan's tid for c is ⌊((u·P_c) mod 2^64)·s_c / 2^64⌋, and
/// peeling those digits off u·S / 2^64 one by one leaves a fraction
/// below 1. So ⌊u·S / 2^64⌋ is exactly the mixed-radix index of the
/// drawn tids, first conflict block most significant: a draw reads the
/// engine words it always read and turns them into a world with one
/// multiply. The symbolic schemes then put the alias-drawn image's own
/// tids in place of the drawn ones, one digit per pinned conflict block.
///
/// Image i sits at bit i of a mask and kFilled at bit 63, so a table
/// serves at most kMaxImages = 63 images, and 0 marks a world not yet
/// filled. Filling ANDs one precomputed mask per conflict block — the
/// images that pin no tid there or pin the world's — so it costs
/// O(#conflict blocks), at most 12. A table holds at most kMaxWorlds ×
/// 8 B = 32 KB of masks.
class ConflictWorldTable {
 public:
  /// The most images a table serves: bits 0..62 of a mask.
  static constexpr size_t kMaxImages = 63;
  /// The most conflict worlds a table serves.
  static constexpr uint32_t kMaxWorlds = uint32_t{1} << 12;
  /// Bit 63, set in every filled mask.
  static constexpr uint64_t kFilled = uint64_t{1} << 63;

  /// True iff the synopsis has 1..kMaxImages images and its blocks of
  /// size >= 2 multiply out to at most kMaxWorlds: the shapes every
  /// scheme draws through a table rather than through ImageIndex.
  static bool Eligible(const Synopsis& synopsis);

  /// The synopsis must be Eligible and outlive the table.
  explicit ConflictWorldTable(const Synopsis* synopsis);

  const Synopsis& synopsis() const { return *synopsis_; }

  /// S, the number of conflict worlds (1 when no block has size >= 2).
  uint32_t num_worlds() const { return num_worlds_; }

  /// True iff some certain image (no fact in a block of size >= 2) ends
  /// before the first conflict block, or no conflict block exists. The
  /// natural sampler then stops before it draws a tid: its draw is 1 and
  /// takes no engine word.
  bool certain_before_conflict() const { return certain_before_conflict_; }

  /// The world TidDigitPlan draws over every conflict block: one engine
  /// word. Requires a conflict block (num_worlds() > 1).
  uint32_t DrawWorld(Rng& rng) const { return World(rng.engine()()); }

  /// The world SymbolicSpace::SampleElement draws after its alias draw
  /// picked image `i`: the digit plan's tids with image i's own in i's
  /// conflict blocks. One engine word, or none without a conflict block.
  uint32_t DrawPinnedWorld(Rng& rng, size_t i) const {
    if (num_worlds_ == 1) return 0;
    const uint64_t u = rng.engine()();
    uint32_t world = World(u);
    for (uint32_t p = pin_offsets_[i]; p < pin_offsets_[i + 1]; ++p) {
      const Pin& pin = pins_[p];
      // Unsigned wrap-around: the sum lands back in [0, S).
      world += (pin.tid - Digit(u, pin.prefix, pin.size)) * pin.stride;
    }
    return world;
  }

  /// The images world `w` contains (bit i for image i), with kFilled set.
  uint64_t Lookup(uint32_t w) {
    const uint64_t mask = masks_[w];
    return mask != 0 ? mask : Fill(w);
  }

  /// A draw (i, I) of S• as DrawSymbolic returns it: the image i and the
  /// mask of I's world, in which bit i is always set.
  struct SymbolicDraw {
    size_t image;
    uint64_t mask;
  };

  /// One draw (i, I) uniform in S•, from the engine words of
  /// SymbolicSpace::SampleElement: the alias draw picks i, and
  /// DrawPinnedWorld gives I's world. `space` must be built over this
  /// table's synopsis.
  SymbolicDraw DrawSymbolic(const SymbolicSpace& space, Rng& rng) {
    CQA_DCHECK(&space.synopsis() == synopsis_);
    const size_t i = space.SampleImageIndex(rng);
    const uint64_t mask = Lookup(DrawPinnedWorld(rng, i));
    CQA_AUDIT(audit::CheckWorldWitness, mask, i);
    return {i, mask};
  }

  /// Writes world `w`'s database into *choice: the world's tid for every
  /// conflict block, 0 for every size-1 block.
  void Decode(uint32_t w, Synopsis::Choice* choice) const;

 private:
  /// A block of size >= 2: its index, size s_c, the product P_c of the
  /// earlier conflict sizes, its stride S / (P_c·s_c) in a world index,
  /// and where its per-tid masks start in tid_masks_.
  struct ConflictBlock {
    uint32_t block;
    uint32_t size;
    uint32_t prefix;
    uint32_t stride;
    uint32_t masks;
  };
  /// One fact of an image in a conflict block, with that block's digit
  /// geometry copied in so a pinned draw reads one array.
  struct Pin {
    uint32_t prefix;
    uint32_t size;
    uint32_t stride;
    uint32_t tid;
  };

  /// ⌊u·S / 2^64⌋.
  uint32_t World(uint64_t u) const {
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(u) * num_worlds_) >> 64);
  }

  /// The digit plan's tid for a conflict block of size `size` whose
  /// earlier conflict blocks multiply to `prefix`, from word u.
  static uint32_t Digit(uint64_t u, uint32_t prefix, uint32_t size) {
    const uint64_t f = u * prefix;  // (u·P_c) mod 2^64.
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(f) * size) >> 64);
  }

  /// Computes, audits and stores world w's mask.
  uint64_t Fill(uint32_t w);

  const Synopsis* synopsis_;
  uint32_t num_worlds_ = 1;
  bool certain_before_conflict_ = false;
  std::vector<ConflictBlock> conflict_;
  // tid_masks_[conflict_[c].masks + t]: the images that pin no tid in
  // conflict block c or pin tid t there.
  std::vector<uint64_t> tid_masks_;
  // Image i's facts in conflict blocks: pins_[pin_offsets_[i] ..
  // pin_offsets_[i + 1]).
  std::vector<uint32_t> pin_offsets_;
  std::vector<Pin> pins_;
  // One mask per world; 0 until the first draw that reaches it.
  std::vector<uint64_t> masks_;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_CONFLICT_WORLDS_H_

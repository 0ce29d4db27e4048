// Per-chunk, per-column statistics for scan pruning: inclusive min/max
// bounds, a small equi-width histogram for numeric columns, and the exact
// distinct count when the segment is dictionary-encoded. The only contract
// is one-sided: MayContainEqual never returns false for a value the chunk
// holds (a false positive merely costs a scan), which is what makes the
// pruning in Relation::ScanMatching and the sorted-unique fast path in
// block construction safe (docs/storage.md, "Chunk statistics").
#ifndef CQABENCH_STORAGE_CHUNK_STATS_H_
#define CQABENCH_STORAGE_CHUNK_STATS_H_

#include <cstdint>

#include "storage/segment.h"

namespace cqa {

/// Statistics of one column within one sealed chunk.
struct ChunkColumnStats {
  static constexpr size_t kHistogramBins = 16;

  /// False for empty chunks: no bounds, MayContainEqual says no.
  bool valid = false;

  /// Inclusive bounds over the chunk's values (same type as the column).
  Value min;
  Value max;

  /// Exact distinct count when the segment is dictionary-encoded;
  /// 0 = unknown (plain segments do not pay a distinct pass).
  uint32_t distinct = 0;

  /// Equi-width histogram over [min, max] for int and double columns
  /// (string columns keep min/max only and leave has_histogram false).
  /// bins[i] counts the chunk's values mapped into bucket i; a zero bucket
  /// proves the absence of every value that maps there.
  bool has_histogram = false;
  uint32_t bins[kHistogramBins] = {};

  /// Bucket index of `v` under this histogram's [min, max] split. Only
  /// meaningful when has_histogram and min <= v <= max.
  size_t BinOf(const Value& v) const;

  /// True unless the statistics *prove* `v` is absent from the chunk
  /// (type mismatch, out of [min, max], or an empty histogram bucket).
  bool MayContainEqual(const Value& v) const;
};

/// Builds the statistics of one sealed run of values: a whole segment
/// (Segment::Run) or, in tests, a run over reference buffers.
ChunkColumnStats BuildChunkColumnStats(const ColumnRun& run);

/// Builds the statistics of one sealed segment.
inline ChunkColumnStats BuildChunkColumnStats(const Segment& segment) {
  return BuildChunkColumnStats(segment.Run(0));
}

}  // namespace cqa

#endif  // CQABENCH_STORAGE_CHUNK_STATS_H_

#include "storage/chunk_stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace cqa {

namespace {

/// Bucket of an int value within [min, max]. Widths are computed in
/// unsigned arithmetic so max - min cannot overflow.
size_t IntBin(int64_t v, int64_t min, int64_t max) {
  uint64_t range = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  uint64_t offset = static_cast<uint64_t>(v) - static_cast<uint64_t>(min);
  if (range < ChunkColumnStats::kHistogramBins) {
    return static_cast<size_t>(offset);
  }
  uint64_t width = range / ChunkColumnStats::kHistogramBins + 1;
  return static_cast<size_t>(offset / width);
}

size_t DoubleBin(double v, double min, double max) {
  if (!(max > min)) return 0;
  double frac = (v - min) / (max - min);
  if (!(frac > 0.0)) return 0;
  size_t bin = static_cast<size_t>(frac * ChunkColumnStats::kHistogramBins);
  return std::min(bin, ChunkColumnStats::kHistogramBins - 1);
}

}  // namespace

size_t ChunkColumnStats::BinOf(const Value& v) const {
  CQA_DCHECK(has_histogram);
  if (v.is_int()) return IntBin(v.AsInt(), min.AsInt(), max.AsInt());
  return DoubleBin(v.AsDouble(), min.AsDouble(), max.AsDouble());
}

bool ChunkColumnStats::MayContainEqual(const Value& v) const {
  if (!valid) return false;
  if (v.type() != min.type()) return false;
  if (v < min || max < v) return false;
  if (has_histogram && bins[BinOf(v)] == 0) return false;
  return true;
}

ChunkColumnStats BuildChunkColumnStats(const ColumnRun& run) {
  ChunkColumnStats stats;
  if (run.length == 0) return stats;
  stats.valid = true;

  if (run.encoding == SegmentEncoding::kDictionary) {
    // The dictionary is sorted: bounds are its ends, distinct its size.
    stats.distinct = static_cast<uint32_t>(run.dict_size);
    if (run.type == ValueType::kInt) {
      stats.min = Value(run.int_dict[0]);
      stats.max = Value(run.int_dict[run.dict_size - 1]);
    } else {
      stats.min = Value(run.string_dict[0]);
      stats.max = Value(run.string_dict[run.dict_size - 1]);
    }
  } else {
    switch (run.type) {
      case ValueType::kInt: {
        auto [lo, hi] = std::minmax_element(run.ints, run.ints + run.length);
        stats.min = Value(*lo);
        stats.max = Value(*hi);
        break;
      }
      case ValueType::kDouble: {
        // NaN orders against nothing, so it must not decide the bounds.
        // The others keep std::minmax_element's choice among equals (the
        // first smallest, the last largest: -0.0 vs 0.0). All NaN: NaN.
        const double* const end = run.doubles + run.length;
        const double* lo = std::find_if(
            run.doubles, end, [](double d) { return !std::isnan(d); });
        const double* hi = lo;
        if (lo == end) lo = hi = run.doubles;
        for (const double* d = lo; d != end; ++d) {
          if (*d < *lo) lo = d;
          if (*d >= *hi) hi = d;
        }
        stats.min = Value(*lo);
        stats.max = Value(*hi);
        break;
      }
      case ValueType::kString: {
        auto [lo, hi] =
            std::minmax_element(run.strings, run.strings + run.length);
        stats.min = Value(*lo);
        stats.max = Value(*hi);
        break;
      }
    }
  }

  if (run.type == ValueType::kString) return stats;  // min/max only.

  stats.has_histogram = true;
  if (run.type == ValueType::kInt) {
    int64_t min = stats.min.AsInt(), max = stats.max.AsInt();
    if (run.encoding == SegmentEncoding::kDictionary) {
      // One bucket lookup per dictionary entry, then scatter by code.
      size_t entry_bin[256];
      if (run.dict_size <= 256) {
        for (size_t d = 0; d < run.dict_size; ++d) {
          entry_bin[d] = IntBin(run.int_dict[d], min, max);
        }
        for (size_t i = 0; i < run.length; ++i) {
          ++stats.bins[entry_bin[run.codes[i]]];
        }
      } else {
        for (size_t i = 0; i < run.length; ++i) {
          ++stats.bins[IntBin(run.int_dict[run.codes[i]], min, max)];
        }
      }
    } else {
      for (size_t i = 0; i < run.length; ++i) {
        ++stats.bins[IntBin(run.ints[i], min, max)];
      }
    }
  } else {
    double min = stats.min.AsDouble(), max = stats.max.AsDouble();
    for (size_t i = 0; i < run.length; ++i) {
      ++stats.bins[DoubleBin(run.doubles[i], min, max)];
    }
  }
  return stats;
}

}  // namespace cqa

#include "storage/repairs.h"

#include <cmath>

#include "common/macros.h"
#include "storage/audit.h"

namespace cqa {

namespace {

/// Flattens the blocks of every relation into one list of (relation id,
/// rows) choice points.
std::vector<std::pair<size_t, std::span<const uint32_t>>> AllBlocks(
    const Database& db, const BlockIndex& index) {
  std::vector<std::pair<size_t, std::span<const uint32_t>>> blocks;
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const RelationBlockIndex& rbi = index.relation(rid);
    for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
      blocks.emplace_back(rid, rbi.block(bid));
    }
  }
  return blocks;
}

}  // namespace

double CountRepairsLog10(const Database& db, const BlockIndex& index) {
  double log_count = 0.0;
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    const RelationBlockIndex& rbi = index.relation(rid);
    for (size_t bid = 0; bid < rbi.NumBlocks(); ++bid) {
      log_count += std::log10(static_cast<double>(rbi.block(bid).size()));
    }
  }
  return log_count;
}

double CountRepairs(const Database& db, const BlockIndex& index) {
  return std::pow(10.0, CountRepairsLog10(db, index));
}

bool ForEachRepair(const Database& db, const BlockIndex& index,
                   const std::function<bool(const std::vector<FactRef>&)>& fn,
                   size_t max_repairs) {
  // The enumeration below assumes the blocks partition every relation;
  // a broken partition would repeat or skip repairs silently.
  CQA_AUDIT(audit::CheckBlockPartition, db, index);
  auto blocks = AllBlocks(db, index);
  std::vector<size_t> choice(blocks.size(), 0);
  std::vector<FactRef> selection(blocks.size());
  size_t visited = 0;
  while (true) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      CQA_DCHECK(choice[i] < blocks[i].second.size());
      selection[i] = FactRef{blocks[i].first, blocks[i].second[choice[i]]};
    }
    ++visited;
    if (visited == 1) {
      // One structural audit per enumeration: the selection names one
      // fact per block, in block order.
      CQA_AUDIT(audit::CheckRepairSelection, db, index, selection);
    }
    if (!fn(selection)) return false;
    if (max_repairs != 0 && visited >= max_repairs) {
      // Did we stop exactly at the last repair?
      for (size_t i = 0; i < blocks.size(); ++i) {
        if (choice[i] + 1 < blocks[i].second.size()) return false;
      }
      return true;
    }
    // Odometer increment over block choices.
    size_t i = 0;
    for (; i < blocks.size(); ++i) {
      if (++choice[i] < blocks[i].second.size()) break;
      choice[i] = 0;
    }
    if (i == blocks.size()) return true;  // Wrapped around: all visited.
  }
}

Database MaterializeRepair(const Database& db,
                           const std::vector<FactRef>& selection) {
  Database repair(&db.schema());
  for (const FactRef& f : selection) {
    repair.Insert(f.relation_id, db.FactTuple(f));
  }
  return repair;
}

}  // namespace cqa

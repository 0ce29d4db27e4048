// Audit predicates for the storage layer (CQA_AUDIT): block-partition and
// repair-selection invariants plus the structural checks of the columnar
// plane — chunk tiling, dictionary order, and the one-sided chunk
// statistics contract pruning correctness rests on.
#ifndef CQABENCH_STORAGE_AUDIT_H_
#define CQABENCH_STORAGE_AUDIT_H_

#include <string>
#include <vector>

#include "storage/block_index.h"
#include "storage/database.h"

namespace cqa::audit {

/// Audit predicates for the storage layer, run through CQA_AUDIT (see
/// common/macros.h). Each returns true when the invariant holds; on a
/// violation it writes a diagnostic to *why (when non-null) and returns
/// false so tests can probe corrupted states without dying.

/// The blocks of every relation partition its rows: each row appears in
/// exactly one block, at the position its annotation claims, and the
/// annotated block size matches the block's actual cardinality. This is
/// the "blocks partition the inconsistent relation" precondition every
/// synopsis and repair-enumeration result rests on. The partition must
/// also be the key's, under Value equality: every row of a block equals
/// the block's first row on the key (the whole tuple when the relation has
/// none), no two blocks share a key, blocks open in row order and tids
/// follow row order.
bool CheckBlockPartition(const Database& db, const BlockIndex& index,
                         std::string* why);

/// A repair selection picks exactly one fact per block, and each picked
/// row is a member of the block it stands for (in block order, matching
/// ForEachRepair's enumeration).
bool CheckRepairSelection(const Database& db, const BlockIndex& index,
                          const std::vector<FactRef>& selection,
                          std::string* why);

/// Structural invariants of the columnar storage plane, for every relation
/// of `db`: chunks tile the row space contiguously, each segment holds
/// exactly its chunk's rows, dictionaries are sorted and duplicate-free
/// with every code in range, and chunk statistics honor their one-sided
/// contract (min/max bound each stored value, histogram bins sum to the
/// row count, MayContainEqual never rejects a value the chunk holds).
bool CheckColumnarStorage(const Database& db, std::string* why);

}  // namespace cqa::audit

#endif  // CQABENCH_STORAGE_AUDIT_H_

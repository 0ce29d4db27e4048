#include "gen/noise.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "cqa/preprocess.h"

namespace cqa {

namespace {

/// Step 2 + Step 3 of §6.1 for one relation: select ⌈p·|rows|⌉ of the
/// given facts and inflate each one's block to a random size in [ℓ, u],
/// copying non-key values from donors with different keys.
void InflateBlocks(Database* db, size_t rid, const std::vector<size_t>& rows,
                   const NoiseOptions& options, Rng& rng,
                   NoiseStats* stats) {
  if (rows.empty()) return;
  const Relation& rel = db->relation(rid);
  const RelationSchema& rs = rel.schema();
  const size_t original_size = rel.size();

  size_t num_selected = std::min(
      rows.size(),
      static_cast<size_t>(
          std::ceil(options.p * static_cast<double>(rows.size()))));
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(rows.size(), num_selected);
  stats->selected_facts += num_selected;

  for (size_t pick : picks) {
    size_t row = rows[pick];
    const Tuple key = ProjectTuple(rel.row(row), rs.key_positions());

    size_t s = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(options.min_block_size),
                       static_cast<int64_t>(options.max_block_size)));
    std::unordered_set<Tuple, TupleHash> block_members;
    block_members.insert(rel.row(row));
    for (size_t j = 0; j + 1 < s; ++j) {
      // Donor: a random original fact of R with a different key value,
      // so the copied non-key values keep joining like real data.
      Tuple candidate;
      bool found = false;
      for (int attempt = 0; attempt < 32 && !found; ++attempt) {
        size_t donor = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(original_size) - 1));
        if (ProjectTuple(rel.row(donor), rs.key_positions()) == key) {
          continue;
        }
        candidate = rel.row(donor);
        for (size_t i = 0; i < rs.key_positions().size(); ++i) {
          candidate[rs.key_positions()[i]] = key[i];
        }
        // Databases are sets: skip duplicates within the block.
        if (block_members.count(candidate) > 0) continue;
        found = true;
      }
      if (!found) break;  // Not enough distinct donors; leave block short.
      block_members.insert(candidate);
      db->Insert(rid, std::move(candidate));
      ++stats->facts_added;
    }
  }
}

}  // namespace

NoiseStats AddQueryAwareNoise(Database* db, const ConjunctiveQuery& q,
                              const NoiseOptions& options, Rng& rng) {
  CQA_CHECK(db != nullptr);
  CQA_CHECK(options.p > 0.0 && options.p <= 1.0);
  CQA_CHECK(options.min_block_size >= 2);
  CQA_CHECK(options.min_block_size <= options.max_block_size);
  NoiseStats stats;

  // Step 1: the query-relevant facts, grouped per relation. Relations
  // without a key cannot host conflicts and are skipped.
  PreprocessResult syn = BuildSynopses(*db, q);
  std::vector<std::vector<size_t>> relevant(db->NumRelations());
  for (const FactRef& f : syn.ImageFactRefs()) {
    if (!db->relation(f.relation_id).schema().has_key()) continue;
    relevant[f.relation_id].push_back(f.row);
    ++stats.relevant_facts;
  }

  for (size_t rid = 0; rid < relevant.size(); ++rid) {
    InflateBlocks(db, rid, relevant[rid], options, rng, &stats);
  }
  // The injected facts sat in the relations' tails; seal them into chunks
  // so the noisy instance is as columnar as the base it extends.
  db->SealStorage();
  return stats;
}

NoiseStats AddObliviousNoise(Database* db, const NoiseOptions& options,
                             Rng& rng) {
  CQA_CHECK(db != nullptr);
  CQA_CHECK(options.p > 0.0 && options.p <= 1.0);
  CQA_CHECK(options.min_block_size >= 2);
  CQA_CHECK(options.min_block_size <= options.max_block_size);
  NoiseStats stats;
  for (size_t rid = 0; rid < db->NumRelations(); ++rid) {
    const Relation& rel = db->relation(rid);
    if (!rel.schema().has_key()) continue;
    std::vector<size_t> rows(rel.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    stats.relevant_facts += rows.size();
    InflateBlocks(db, rid, rows, options, rng, &stats);
  }
  db->SealStorage();
  return stats;
}

}  // namespace cqa

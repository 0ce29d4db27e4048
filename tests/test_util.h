#ifndef CQABENCH_TESTS_TEST_UTIL_H_
#define CQABENCH_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "cqa/synopsis.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace cqa {
namespace testing {

/// The running example of the paper (Example 1.1): Employee(id, name,
/// dept) with key(Employee) = {id} and facts
///   (1, Bob, HR) (1, Bob, IT) (2, Alice, IT) (2, Tim, IT),
/// which has exactly four repairs.
struct EmployeeFixture {
  EmployeeFixture() {
    schema = std::make_unique<Schema>();
    schema->AddRelation(RelationSchema("employee",
                                       {{"id", ValueType::kInt},
                                        {"name", ValueType::kString},
                                        {"dept", ValueType::kString}},
                                       {0}));
    db = std::make_unique<Database>(schema.get());
    db->Insert("employee", {Value(1), Value("Bob"), Value("HR")});
    db->Insert("employee", {Value(1), Value("Bob"), Value("IT")});
    db->Insert("employee", {Value(2), Value("Alice"), Value("IT")});
    db->Insert("employee", {Value(2), Value("Tim"), Value("IT")});
  }

  std::unique_ptr<Schema> schema;
  std::unique_ptr<Database> db;
};

/// A random admissible pair (H, B) for property tests: `num_blocks` blocks
/// with sizes in [1, max_block_size] (at least one of size >= 2) and up to
/// `max_images` consistent images touching up to `max_image_facts` blocks.
inline Synopsis MakeRandomSynopsis(Rng& rng, size_t num_blocks,
                                   size_t max_block_size, size_t max_images,
                                   size_t max_image_facts) {
  SynopsisBuilder builder;
  for (size_t b = 0; b < num_blocks; ++b) {
    size_t size = 1 + rng.UniformIndex(max_block_size);
    if (b == 0 && size < 2) size = 2;
    builder.AddBlock(Synopsis::Block{static_cast<uint32_t>(size), 0,
                                     static_cast<uint32_t>(b)});
  }
  size_t num_images = 1 + rng.UniformIndex(max_images);
  for (size_t i = 0; i < num_images; ++i) {
    size_t num_facts = 1 + rng.UniformIndex(
                               std::min(max_image_facts, num_blocks));
    std::vector<size_t> blocks =
        rng.SampleWithoutReplacement(num_blocks, num_facts);
    std::vector<Synopsis::ImageFact> facts;
    for (size_t b : blocks) {
      facts.push_back(Synopsis::ImageFact{
          static_cast<uint32_t>(b),
          static_cast<uint32_t>(
              rng.UniformIndex(builder.blocks()[b].size))});
    }
    builder.AddImage(facts);
  }
  return builder.Finish();
}

/// A random admissible pair (H, B) with a chosen share of size-1 blocks,
/// for the tests of the size-1 fold. Each of the `num_blocks` blocks has
/// size 1 with probability `size1_share`, else a size in
/// [2, max_block_size]. Up to `max_images` images touch up to
/// `max_image_facts` blocks each; with probability `certain_share` an
/// image takes all its facts from size-1 blocks (when there are any), so
/// it lies in every database. MakeRandomSynopsis's draws stay as they
/// are: its seeded callers do not change.
inline Synopsis MakeSynopsisWithSize1Share(Rng& rng, size_t num_blocks,
                                           size_t max_block_size,
                                           double size1_share,
                                           double certain_share,
                                           size_t max_images,
                                           size_t max_image_facts) {
  SynopsisBuilder builder;
  std::vector<uint32_t> size1_blocks;
  for (size_t b = 0; b < num_blocks; ++b) {
    size_t size = 1;
    if (!rng.Bernoulli(size1_share)) {
      size = 2 + rng.UniformIndex(max_block_size - 1);
    } else {
      size1_blocks.push_back(static_cast<uint32_t>(b));
    }
    builder.AddBlock(Synopsis::Block{static_cast<uint32_t>(size), 0,
                                     static_cast<uint32_t>(b)});
  }
  size_t num_images = 1 + rng.UniformIndex(max_images);
  for (size_t i = 0; i < num_images; ++i) {
    const bool certain = !size1_blocks.empty() && rng.Bernoulli(certain_share);
    const size_t pool = certain ? size1_blocks.size() : num_blocks;
    size_t num_facts = 1 + rng.UniformIndex(std::min(max_image_facts, pool));
    std::vector<Synopsis::ImageFact> facts;
    for (size_t k : rng.SampleWithoutReplacement(pool, num_facts)) {
      const uint32_t b =
          certain ? size1_blocks[k] : static_cast<uint32_t>(k);
      facts.push_back(Synopsis::ImageFact{
          b, static_cast<uint32_t>(
                 rng.UniformIndex(builder.blocks()[b].size))});
    }
    builder.AddImage(facts);
  }
  return builder.Finish();
}

/// Empirical mean of `n` draws from a sampler-like callable.
template <typename Fn>
double EmpiricalMean(Fn&& draw, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += draw();
  return sum / static_cast<double>(n);
}

}  // namespace testing
}  // namespace cqa

#endif  // CQABENCH_TESTS_TEST_UTIL_H_

#include "cqa/block_dnf.h"

#include <cmath>
#include <sstream>

#include "common/macros.h"

namespace cqa {

size_t BlockDnf::NumVariables() const {
  size_t total = 0;
  for (size_t s : block_sizes) total += s;
  return total;
}

std::string BlockDnf::ToString() const {
  std::ostringstream os;
  os << "blocks:";
  for (size_t b = 0; b < block_sizes.size(); ++b) {
    os << " X" << b << "{";
    for (size_t i = 0; i < block_sizes[b]; ++i) {
      if (i > 0) os << ' ';
      os << 'x' << b << '_' << i;
    }
    os << '}';
  }
  os << "\nformula: ";
  for (size_t c = 0; c < clauses.size(); ++c) {
    if (c > 0) os << " | ";
    os << '(';
    for (size_t l = 0; l < clauses[c].size(); ++l) {
      if (l > 0) os << " & ";
      os << 'x' << clauses[c][l].block << '_' << clauses[c][l].index;
    }
    os << ')';
  }
  return os.str();
}

BlockDnf SynopsisToBlockDnf(const Synopsis& synopsis) {
  BlockDnf formula;
  formula.block_sizes.reserve(synopsis.NumBlocks());
  for (const Synopsis::Block& b : synopsis.blocks()) {
    formula.block_sizes.push_back(b.size);
  }
  formula.clauses.reserve(synopsis.NumImages());
  for (size_t i = 0; i < synopsis.NumImages(); ++i) {
    const std::span<const Synopsis::ImageFact> image = synopsis.image(i);
    std::vector<BlockDnf::Literal> clause;
    clause.reserve(image.size());
    for (const Synopsis::ImageFact& f : image) {
      clause.push_back(BlockDnf::Literal{f.block, f.tid});
    }
    formula.clauses.push_back(std::move(clause));
  }
  return formula;
}

std::optional<double> SatisfyingFraction(const BlockDnf& formula,
                                         size_t max_assignments) {
  if (formula.NumBlocks() == 0) return formula.NumClauses() > 0 ? 1.0 : 0.0;
  double log_assignments = 0.0;
  for (size_t s : formula.block_sizes) {
    CQA_CHECK(s >= 1);
    log_assignments += std::log10(static_cast<double>(s));
  }
  if (log_assignments > std::log10(static_cast<double>(max_assignments))) {
    return std::nullopt;
  }

  std::vector<uint32_t> assignment(formula.NumBlocks(), 0);
  size_t satisfied = 0;
  size_t total = 0;
  while (true) {
    ++total;
    for (const std::vector<BlockDnf::Literal>& clause : formula.clauses) {
      bool all_true = true;
      for (const BlockDnf::Literal& lit : clause) {
        if (assignment[lit.block] != lit.index) {
          all_true = false;
          break;
        }
      }
      if (all_true) {
        ++satisfied;
        break;
      }
    }
    size_t b = 0;
    for (; b < assignment.size(); ++b) {
      if (++assignment[b] < formula.block_sizes[b]) break;
      assignment[b] = 0;
    }
    if (b == assignment.size()) break;
  }
  return static_cast<double>(satisfied) / static_cast<double>(total);
}

}  // namespace cqa

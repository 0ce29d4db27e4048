// Text (de)serialization of synopsis sets, decoupling the preprocessing
// phase from scheme evaluation the way the paper materializes its
// intermediate logs.
#ifndef CQABENCH_CQA_SYNOPSIS_IO_H_
#define CQABENCH_CQA_SYNOPSIS_IO_H_

#include <istream>
#include <string>
#include <vector>

#include "cqa/preprocess.h"

namespace cqa {

/// Text serialization of a synopsis set enc(syn_{Σ,Q}(D)).
///
/// The paper's pipeline materializes the preprocessing output before the
/// schemes run (its experiment logs amount to 130 GB); these routines
/// decouple the two phases the same way: preprocess once, persist, then
/// evaluate any scheme offline. Format (line-based, '|'-separated):
///
///   CQA_SYNOPSES 1
///   A|<typed answer values...>          one per answer, followed by
///   B|<size>,<rid>,<bid>|...            its blocks and
///   I|<block>:<tid> <block>:<tid>...|.. its images.
///
/// Typed values are `i:<int>`, `d:<%.17g double>`, `s:<string>`; strings
/// must not contain '|' or newlines (same restriction as tbl files).

bool WriteSynopses(const PreprocessResult& preprocessed,
                   const std::string& path, std::string* error);

/// Reads a synopsis set back. Only the answers and their (H, B) pairs are
/// persisted (the block index belongs to the database, not the encoding).
/// Every record must end with '|', every number be a complete unsigned
/// 32-bit decimal, every block size at least 1, and every image a
/// consistent set of facts within its answer's blocks; anything else
/// fails with "<path>:<line>: <reason>" and leaves `out` partly filled.
bool ReadSynopses(const std::string& path, std::vector<AnswerSynopsis>* out,
                  std::string* error);

/// The same, reading `in`; `path` names it in error messages.
bool ReadSynopses(std::istream& in, const std::string& path,
                  std::vector<AnswerSynopsis>* out, std::string* error);

}  // namespace cqa

#endif  // CQABENCH_CQA_SYNOPSIS_IO_H_

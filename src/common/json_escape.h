// The one JSON string escaper, shared by the obs exporters and the
// serving layer's codec and access log.
#ifndef CQABENCH_COMMON_JSON_ESCAPE_H_
#define CQABENCH_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace cqa {

/// Appends `s` to *out escaped for the inside of a JSON string (the
/// quotes are the caller's): `"` and `\` get a backslash, \b \f \n \r \t
/// their short escapes, other bytes below 0x20 \u00XX. Every other byte,
/// UTF-8 included, is copied as is. Allocates only to grow *out.
void AppendJsonEscaped(std::string* out, std::string_view s);

}  // namespace cqa

#endif  // CQABENCH_COMMON_JSON_ESCAPE_H_

#include "common/json_escape.h"

#include <cstdio>

namespace cqa {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  size_t run = 0;  // Start of the bytes copied as is.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace cqa

#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json_escape.h"

namespace cqa::serve {

namespace {

/// Recursive-descent parser over a borrowed buffer. Depth is bounded so a
/// frame of ten thousand '[' characters cannot blow the stack.
class Parser {
 public:
  static constexpr int kMaxDepth = 64;

  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "json: %s at offset %zu", what, pos_);
      *error_ = buf;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true", 4)) return false;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!Literal("false", 5)) return false;
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!Literal("null", 4)) return false;
        *out = JsonValue::MakeNull();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseString(std::string* out) {
    // Caller ensured text_[pos_] == '"'.
    ++pos_;
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return Fail("dangling escape");
      switch (text_[pos_]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 >= text_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          for (int i = 1; i <= 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape digit");
          }
          pos_ += 4;
          // UTF-8 encode the code point (surrogate pairs are passed
          // through as two 3-byte sequences — the protocol carries only
          // ASCII field names, this keeps the parser total).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
      ++pos_;
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      return Fail("bad number");
    }
    *out = JsonValue::MakeNumber(value);
    return true;
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::MakeArray();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(&element, depth + 1)) return false;
      out->Append(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return Fail("expected ',' in array");
      ++pos_;
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::MakeObject();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->Set(key, std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return Fail("expected ',' in object");
      ++pos_;
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

void SerializeTo(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      return;
    case JsonValue::Kind::kBool:
      out->append(v.AsBool() ? "true" : "false");
      return;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      const double n = v.AsNumber();
      // Integers print exactly (seeds, counts, error codes); everything
      // else gets round-trippable precision.
      if (n == static_cast<double>(static_cast<long long>(n)) &&
          std::abs(n) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", n);
      }
      out->append(buf);
      return;
    }
    case JsonValue::Kind::kString:
      out->push_back('"');
      AppendJsonEscaped(out, v.AsString());
      out->push_back('"');
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& e : v.AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeTo(e, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        AppendJsonEscaped(out, key);
        out->append("\":");
        SerializeTo(value, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

bool JsonValue::Parse(const std::string& text, JsonValue* out,
                      std::string* error) {
  Parser parser(text, error);
  return parser.ParseDocument(out);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::Append(JsonValue v) { array_.push_back(std::move(v)); }

void JsonValue::Set(const std::string& key, JsonValue v) {
  object_.emplace_back(key, std::move(v));
}

}  // namespace cqa::serve

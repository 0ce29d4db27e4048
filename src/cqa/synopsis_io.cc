#include "cqa/synopsis_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

namespace cqa {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool AppendValue(const Value& v, std::string* line, std::string* error) {
  switch (v.type()) {
    case ValueType::kInt:
      line->append("i:");
      line->append(std::to_string(v.AsInt()));
      break;
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
      line->append(buf);
      break;
    }
    case ValueType::kString:
      if (v.AsString().find('|') != std::string::npos ||
          v.AsString().find('\n') != std::string::npos) {
        return Fail(error, "string value contains '|' or newline");
      }
      line->append("s:");
      line->append(v.AsString());
      break;
  }
  line->push_back('|');
  return true;
}

bool ParseValue(const std::string& field, Value* out, std::string* error) {
  if (field.size() < 2 || field[1] != ':') {
    return Fail(error, "malformed value field: " + field);
  }
  std::string body = field.substr(2);
  switch (field[0]) {
    case 'i': {
      char* end = nullptr;
      long long v = std::strtoll(body.c_str(), &end, 10);
      if (end == body.c_str() || *end != '\0') {
        return Fail(error, "bad int: " + body);
      }
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case 'd': {
      char* end = nullptr;
      double v = std::strtod(body.c_str(), &end);
      if (end == body.c_str() || *end != '\0') {
        return Fail(error, "bad double: " + body);
      }
      *out = Value(v);
      return true;
    }
    case 's':
      *out = Value(body);
      return true;
    default:
      return Fail(error, "unknown value tag in: " + field);
  }
}

// A complete decimal number below 2^32: digits only, so no sign, space
// or trailing byte.
bool ParseU32(std::string_view text, uint32_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > UINT32_MAX) return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

// `<size>,<rid>,<bid>`.
bool ParseBlock(std::string_view field, Synopsis::Block* out) {
  const size_t a = field.find(',');
  const size_t b = a == std::string_view::npos ? a : field.find(',', a + 1);
  if (b == std::string_view::npos) return false;
  return ParseU32(field.substr(0, a), &out->size) &&
         ParseU32(field.substr(a + 1, b - a - 1), &out->relation_id) &&
         ParseU32(field.substr(b + 1), &out->block_id);
}

// `<block>:<tid>`.
bool ParseFact(std::string_view token, Synopsis::ImageFact* out) {
  const size_t colon = token.find(':');
  return colon != std::string_view::npos &&
         ParseU32(token.substr(0, colon), &out->block) &&
         ParseU32(token.substr(colon + 1), &out->tid);
}

// Why `facts` cannot be an image over `blocks` (SynopsisBuilder::AddImage
// would abort on it, or its weight Π 1/size, computed as
// Synopsis::ImageWeights does, would underflow to 0 and fail
// SymbolicSpace), or "" when it can. Sorts and dedups `facts`.
std::string ImageError(std::vector<Synopsis::ImageFact>* facts,
                       std::span<const Synopsis::Block> blocks) {
  std::sort(facts->begin(), facts->end());
  facts->erase(std::unique(facts->begin(), facts->end()), facts->end());
  for (size_t i = 0; i < facts->size(); ++i) {
    const Synopsis::ImageFact& f = (*facts)[i];
    const char* problem = nullptr;
    if (f.block >= blocks.size()) {
      problem = "names an unknown block";
    } else if (f.tid >= blocks[f.block].size) {
      problem = "is past the end of its block";
    } else if (i > 0 && (*facts)[i - 1].block == f.block) {
      problem = "shares its block with another fact of the image";
    }
    if (problem != nullptr) {
      return "image fact " + std::to_string(f.block) + ":" +
             std::to_string(f.tid) + " " + problem;
    }
  }
  double weight = 1.0;
  for (const Synopsis::ImageFact& f : *facts) {
    weight /= static_cast<double>(blocks[f.block].size);
  }
  if (!(weight > 0.0)) return "image weight underflows to 0";
  return "";
}

std::vector<std::string> SplitBar(const std::string& line, size_t start) {
  std::vector<std::string> fields;
  size_t pos = start;
  while (pos < line.size()) {
    size_t bar = line.find('|', pos);
    if (bar == std::string::npos) break;
    fields.push_back(line.substr(pos, bar - pos));
    pos = bar + 1;
  }
  return fields;
}

}  // namespace

bool WriteSynopses(const PreprocessResult& preprocessed,
                   const std::string& path, std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Fail(error, "cannot open " + path + " for writing");
  out << "CQA_SYNOPSES 1\n";
  std::string line;
  for (const AnswerSynopsis& as : preprocessed.answers()) {
    line = "A|";
    for (const Value& v : as.answer) {
      if (!AppendValue(v, &line, error)) return false;
    }
    out << line << '\n';
    line = "B|";
    for (const Synopsis::Block& b : as.synopsis.blocks()) {
      line += std::to_string(b.size) + ',' + std::to_string(b.relation_id) +
              ',' + std::to_string(b.block_id) + '|';
    }
    out << line << '\n';
    line = "I|";
    for (size_t i = 0; i < as.synopsis.NumImages(); ++i) {
      std::string facts;
      for (const Synopsis::ImageFact& f : as.synopsis.image(i)) {
        if (!facts.empty()) facts.push_back(' ');
        facts += std::to_string(f.block) + ':' + std::to_string(f.tid);
      }
      line += facts + '|';
    }
    out << line << '\n';
  }
  out.flush();
  if (!out) return Fail(error, "write error on " + path);
  return true;
}

bool ReadSynopses(const std::string& path, std::vector<AnswerSynopsis>* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
  return ReadSynopses(in, path, out, error);
}

bool ReadSynopses(std::istream& in, const std::string& path,
                  std::vector<AnswerSynopsis>* out, std::string* error) {
  std::string line;
  if (!std::getline(in, line) || line != "CQA_SYNOPSES 1") {
    return Fail(error, path + ": bad header");
  }
  out->clear();
  // The synopsis of out->back(), finished at the next answer or the end.
  SynopsisBuilder builder;
  auto finish = [&] {
    if (!out->empty()) out->back().synopsis = builder.Finish();
  };
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_number);
    if (line.back() != '|') {
      // SplitBar would drop the unterminated last field unread.
      return Fail(error, where + ": record does not end with '|'");
    }
    if (line.rfind("A|", 0) == 0) {
      finish();
      AnswerSynopsis as;
      for (const std::string& field : SplitBar(line, 2)) {
        Value v;
        if (!ParseValue(field, &v, error)) return false;
        as.answer.push_back(std::move(v));
      }
      out->push_back(std::move(as));
    } else if (line.rfind("B|", 0) == 0) {
      if (out->empty()) return Fail(error, where + ": B before A");
      for (const std::string& field : SplitBar(line, 2)) {
        Synopsis::Block block;
        if (!ParseBlock(field, &block)) {
          return Fail(error, where + ": bad block: " + field);
        }
        if (block.size == 0) {
          return Fail(error, where + ": block of size 0: " + field);
        }
        builder.AddBlock(block);
      }
    } else if (line.rfind("I|", 0) == 0) {
      if (out->empty()) return Fail(error, where + ": I before A");
      std::vector<Synopsis::ImageFact> facts;
      for (const std::string& field : SplitBar(line, 2)) {
        facts.clear();
        std::istringstream is(field);
        std::string token;
        while (is >> token) {
          Synopsis::ImageFact fact;
          if (!ParseFact(token, &fact)) {
            return Fail(error, where + ": bad image fact: " + token);
          }
          facts.push_back(fact);
        }
        if (facts.empty()) return Fail(error, where + ": empty image");
        const std::string why = ImageError(&facts, builder.blocks());
        if (!why.empty()) return Fail(error, where + ": " + why);
        builder.AddImage(facts);
      }
    } else {
      return Fail(error, where + ": unknown record: " + line);
    }
  }
  finish();
  return true;
}

}  // namespace cqa

#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cqa {

namespace {

// Plain decimal digits only: strtoull alone would accept "-1" (wrapping
// it to 2^64 - 1) and leading blanks.
bool ParseCount(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

}  // namespace

bool Flags::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return false;
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) return false;
    flags_[std::string(arg + 2, eq)] = std::string(eq + 1);
  }
  return true;
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

void Flags::Bad(const std::string& key) const {
  std::fprintf(stderr, "error: bad value for --%s\n", key.c_str());
  ok_ = false;
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    Bad(key);
    return fallback;
  }
  return value;
}

uint64_t Flags::GetCount(const std::string& key, uint64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  uint64_t value = 0;
  if (!ParseCount(it->second, &value)) {
    Bad(key);
    return fallback;
  }
  return value;
}

int Flags::GetPort(const std::string& key, int fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  uint64_t value = 0;
  if (!ParseCount(it->second, &value) || value > 65535) {
    Bad(key);
    return fallback;
  }
  return static_cast<int>(value);
}

bool Flags::ValidateKeys(std::initializer_list<const char*> allowed) const {
  bool ok = true;
  for (const auto& [key, value] : flags_) {
    bool known = false;
    for (const char* a : allowed) known |= key == a;
    if (!known) {
      if (command.empty()) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      } else {
        std::fprintf(stderr, "error: unknown flag --%s for command %s\n",
                     key.c_str(), command.c_str());
      }
      ok = false;
    }
  }
  return ok;
}

}  // namespace cqa

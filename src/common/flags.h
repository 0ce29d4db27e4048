// common/flags — the `--key=value` command-line parser shared by cqad,
// cqa_client and cqa_cli. The numeric getters are strict: a value that
// does not parse completely, a negative count, or a port outside
// 0-65535 prints "error: bad value for --<flag>" and clears ok(), so a
// binary exits with its usage status instead of running on a number
// it silently made up (e.g. `--port=-5` wrapping to 65531, or `--port=abc`
// binding an ephemeral port).
#ifndef CQABENCH_COMMON_FLAGS_H_
#define CQABENCH_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

namespace cqa {

class Flags {
 public:
  /// Reads argv[first, argc) as --key=value pairs (a repeated key keeps
  /// its last value). False on any argument of another shape.
  bool Parse(int argc, char** argv, int first);

  /// Names the subcommand in unknown-flag errors; empty for none.
  std::string command;

  bool Has(const std::string& key) const { return flags_.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& fallback) const;

  /// The getters below return `fallback` when the flag is absent. A
  /// present but bad value prints its error, clears ok() and also
  /// returns `fallback`.
  /// A finite decimal or scientific number.
  double GetDouble(const std::string& key, double fallback) const;
  /// A non-negative integer in plain decimal digits.
  uint64_t GetCount(const std::string& key, uint64_t fallback) const;
  /// A TCP port: an integer in [0, 65535].
  int GetPort(const std::string& key, int fallback) const;

  /// False once any getter met a bad value.
  bool ok() const { return ok_; }

  /// Rejects flags outside `allowed`, printing each unknown one.
  bool ValidateKeys(std::initializer_list<const char*> allowed) const;

 private:
  /// Prints the bad-value error and clears ok_.
  void Bad(const std::string& key) const;

  std::map<std::string, std::string> flags_;
  mutable bool ok_ = true;
};

}  // namespace cqa

#endif  // CQABENCH_COMMON_FLAGS_H_

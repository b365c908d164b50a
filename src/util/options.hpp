// Minimal command-line option parser for the tools, examples and bench
// programs. Supports --key=value and bare --flag forms; anything else is a
// positional arg. Strict: every tool declares the flags it reads, and an
// undeclared flag or a value that does not parse is an error, never a
// silently ignored setting.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace lazygraph {

class Options {
 public:
  /// Parses argv against the declared flag names (without the leading
  /// "--"). A bare --flag stores an empty value. Throws
  /// std::invalid_argument naming the first flag not in `known`.
  Options(int argc, const char* const* argv,
          std::initializer_list<const char*> known);

  bool has(const std::string& key) const;
  /// The flag's value; `def` when the flag is absent or has an empty value.
  std::string get(const std::string& key, const std::string& def) const;
  /// Like get, but the value must parse completely as a base-10 integer
  /// (resp. a floating-point number); throws std::invalid_argument naming
  /// the flag otherwise.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  /// Absent: `def`. Bare flag, "true", "1" or "yes": true. "false", "0" or
  /// "no": false. Anything else throws std::invalid_argument.
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The flag's non-empty value, or null when absent or empty.
  const std::string* value(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace lazygraph

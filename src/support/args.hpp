#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace beepmis::support {

/// Minimal self-contained command-line parser for the CLI tools:
/// `--name value`, `--name=value`, and boolean `--flag` forms. Unknown
/// arguments are errors; `--help` is recognized automatically.
class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Declares a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& help);
  /// Declares a string-valued option with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv. Returns false and fills *error on malformed or unknown
  /// arguments, or when --help was requested (error is then the usage text).
  bool parse(int argc, const char* const* argv, std::string* error);

  bool flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  /// Parses the option as integer/double. A value that is not one (or is
  /// out of range) is a usage error: one line naming the option on stderr,
  /// then exit code 2.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// get_int for counts (threads, rounds, faults): a negative value is a
  /// usage error too, instead of wrapping to a huge std::size_t.
  std::size_t get_count(const std::string& name) const;

  std::string usage(const char* argv0) const;

 private:
  struct Spec {
    bool is_flag = false;
    std::string default_value;
    std::string help;
  };
  std::string description_;
  std::vector<std::string> order_;  // declaration order, for usage()
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

}  // namespace beepmis::support

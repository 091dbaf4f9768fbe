#include "src/support/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/support/check.hpp"

namespace beepmis::support {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  BEEPMIS_CHECK(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{true, "", help};
  order_.push_back(name);
  flags_[name] = false;
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  BEEPMIS_CHECK(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{false, default_value, help};
  order_.push_back(name);
  values_[name] = default_value;
}

bool ArgParser::parse(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *error = usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      *error = "unknown argument: --" + arg;
      return false;
    }
    if (it->second.is_flag) {
      if (has_value) {
        *error = "flag --" + arg + " does not take a value";
        return false;
      }
      flags_[arg] = true;
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          *error = "option --" + arg + " needs a value";
          return false;
        }
        value = argv[++i];
      }
      values_[arg] = value;
    }
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  BEEPMIS_CHECK(it != flags_.end(), "undeclared flag queried");
  return it->second;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  BEEPMIS_CHECK(it != values_.end(), "undeclared option queried");
  return it->second;
}

namespace {

/// The tools' usage-error exit: one line naming the option, then exit 2.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "--%s expects %s, got '%s'\n", name.c_str(), expected,
               value.c_str());
  std::exit(2);
}

}  // namespace

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  errno = 0;
  const std::int64_t x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE)
    bad_value(name, v, "an integer");
  return x;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') bad_value(name, v, "a number");
  return x;
}

std::size_t ArgParser::get_count(const std::string& name) const {
  const std::int64_t x = get_int(name);
  if (x < 0) bad_value(name, get(name), "a non-negative integer");
  return static_cast<std::size_t>(x);
}

std::string ArgParser::usage(const char* argv0) const {
  std::string out = description_;
  out += "\n\nusage: ";
  out += argv0;
  out += " [options]\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& s = specs_.at(name);
    out += "  --" + name;
    if (!s.is_flag) out += " <value>   (default: " + s.default_value + ")";
    out += "\n      " + s.help + "\n";
  }
  out += "  --help\n      print this message\n";
  return out;
}

}  // namespace beepmis::support

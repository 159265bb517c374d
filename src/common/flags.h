// Minimal command-line flag parsing for the driver binaries.
//
// Supports --name=value and --name value forms plus boolean switches
// (--name). Unknown flags are errors so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace bohr {

/// A malformed command-line argument or flag value. The message names the
/// argument, or the flag and its value.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  /// Parses argv. Throws FlagError on a malformed argument (missing '--'
  /// prefix or empty flag name).
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed getters with defaults. Throw FlagError on a value that does
  /// not parse whole as the type.
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Flags seen on the command line but never read by any getter —
  /// call after configuration to catch typos.
  std::vector<std::string> unused() const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace bohr

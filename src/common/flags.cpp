#include "common/flags.h"

#include <charconv>
#include <cmath>

#include "common/check.h"

namespace bohr {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& why) {
  throw FlagError("malformed flag --" + name + "=" + value + ": " + why);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  BOHR_EXPECTS(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw FlagError("malformed argument '" + arg + "': expected --name");
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (body.empty() || eq == 0) {
      throw FlagError("malformed argument '" + arg + "': empty flag name");
    }
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // boolean switch
    }
  }
}

bool Flags::has(const std::string& name) const {
  read_[name] = true;
  return values_.contains(name);
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    bad_value(name, s, "not an integer in range");
  }
  return value;
}

double Flags::get_double(const std::string& name, double fallback) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &consumed);
  } catch (const std::exception&) {
    bad_value(name, it->second, "not a number in range");
  }
  // stod reads "inf" and "nan"; no double flag has a meaning for them.
  if (!std::isfinite(value)) {
    bad_value(name, it->second, "not a number in range");
  }
  if (consumed != it->second.size()) {
    bad_value(name, it->second, "trailing characters");
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "not a boolean");
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!read_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace bohr

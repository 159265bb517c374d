#include "common/phase_timer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace bohr {

namespace {

struct Accumulator {
  double seconds = 0.0;
  std::uint64_t samples = 0;
};

std::mutex g_mu;
std::map<std::string, Accumulator, std::less<>>& registry() {
  static std::map<std::string, Accumulator, std::less<>> phases;
  return phases;
}

}  // namespace

void phase_add(std::string_view name, double seconds) {
  std::lock_guard lock(g_mu);
  auto& acc = registry()[std::string(name)];
  acc.seconds += seconds;
  ++acc.samples;
}

std::vector<PhaseTotal> phase_snapshot() {
  std::lock_guard lock(g_mu);
  std::vector<PhaseTotal> out;
  out.reserve(registry().size());
  for (const auto& [name, acc] : registry()) {
    out.push_back(PhaseTotal{name, acc.seconds, acc.samples});
  }
  return out;  // map iteration is already name-sorted
}

std::string phase_json() {
  std::string json = "{";
  bool first = true;
  for (const auto& phase : phase_snapshot()) {
    // Only the numeric payload goes through the fixed buffer; the name is
    // appended as a std::string so arbitrarily long phase names cannot
    // truncate the JSON.
    char numbers[64];
    std::snprintf(numbers, sizeof(numbers), "{\"s\":%.6f,\"n\":%llu}",
                  phase.seconds,
                  static_cast<unsigned long long>(phase.samples));
    if (!first) json += ',';
    json += '"';
    json += phase.name;
    json += "\":";
    json += numbers;
    first = false;
  }
  json += "}";
  return json;
}

}  // namespace bohr

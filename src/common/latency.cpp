#include "common/latency.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"

namespace bohr {

void LatencyRecorder::add(double seconds) {
  samples_.push_back(seconds);
  stats_.add(seconds);
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  stats_.merge(other.stats_);
}

LatencySummary LatencyRecorder::summarize(double duration_seconds) const {
  LatencySummary s;
  s.count = samples_.size();
  s.duration_seconds = duration_seconds;
  if (samples_.empty()) return s;
  s.throughput_qps = duration_seconds > 0.0
                         ? static_cast<double>(s.count) / duration_seconds
                         : 0.0;
  s.mean_seconds = stats_.mean();
  s.p50_seconds = percentile(samples_, 50.0);
  s.p95_seconds = percentile(samples_, 95.0);
  s.p99_seconds = percentile(samples_, 99.0);
  s.max_seconds = stats_.max();
  return s;
}

std::uint32_t LatencyRecorder::digest() const {
  Crc32 crc;
  for (const double x : samples_) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    crc.update(&bits, sizeof(bits));
  }
  return crc.value();
}

std::string LatencyRecorder::serialize() const {
  std::string out;
  out.reserve(8 + samples_.size() * 8);
  const std::uint64_t n = samples_.size();
  out.append(reinterpret_cast<const char*>(&n), 8);
  for (const double x : samples_) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    out.append(reinterpret_cast<const char*>(&bits), 8);
  }
  return out;
}

LatencyRecorder LatencyRecorder::deserialize(const std::string& image) {
  BOHR_CHECK(image.size() >= 8);
  std::uint64_t n = 0;
  std::memcpy(&n, image.data(), 8);
  // Divide the payload rather than multiply the claimed count: 8 + n * 8
  // wraps for n >= 2^61, and a wrapped check would let the loop below
  // read past the image.
  const std::size_t payload = image.size() - 8;
  BOHR_CHECK(payload % 8 == 0 && n == payload / 8);
  LatencyRecorder out;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, image.data() + 8 + i * 8, 8);
    out.add(std::bit_cast<double>(bits));
  }
  return out;
}

}  // namespace bohr

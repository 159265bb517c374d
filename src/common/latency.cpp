#include "common/latency.h"

#include <bit>

#include "common/bytes.h"
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
  ByteWriter w;
  w.u64(samples_.size());
  for (const double x : samples_) w.f64(x);
  return w.take();
}

LatencyRecorder LatencyRecorder::deserialize(std::string_view image) {
  ByteReader<ContractViolation> r(image, "latency image");
  const std::size_t n = r.count<std::uint64_t>(sizeof(double));
  LatencyRecorder out;
  out.samples_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.add(r.f64());
  r.expect_end();
  return out;
}

}  // namespace bohr

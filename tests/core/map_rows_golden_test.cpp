// Pins the keys DatasetState::map_rows emits: for a small TPC-DS state
// and a small BigData state, a crc32 over every (site, spec) stream, at
// selectivity 1 and at the spec's default selectivity, must equal a
// constant recorded from the row-at-a-time hashing code. A change to any
// key's bits, to which rows a selectivity filter keeps, or to the order
// of the stream fails here.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/state.h"
#include "engine/query.h"

namespace bohr::core {
namespace {

DatasetState golden_state(workload::WorkloadKind kind) {
  workload::GeneratorConfig cfg;
  cfg.sites = 5;
  cfg.rows_per_site = 400;
  cfg.gb_per_site = 4.0;
  cfg.seed = 31;
  auto bundle = workload::generate_dataset(kind, 2, cfg);
  Rng rng(7);
  auto mix = workload::sample_query_mix(bundle, rng);
  return DatasetState(std::move(bundle), std::move(mix), /*with_cubes=*/false);
}

/// Every (site, spec) stream in site-major order, each at selectivity 1
/// and then at its spec's default: the stream's length, then its keys.
std::uint32_t streams_crc(const DatasetState& state) {
  Crc32 crc;
  const auto& specs = state.bundle().query_types;
  for (std::size_t s = 0; s < state.site_count(); ++s) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const double selectivity =
          engine::default_spec_for(specs[t].kind).selectivity;
      for (const double sel : {1.0, selectivity}) {
        const engine::RecordStream keys =
            state.map_rows(s, t, sel, state.query_salt(t));
        ByteWriter out;
        out.u64(keys.size());
        for (const std::uint64_t key : keys) out.u64(key);
        crc.update(out.take());
      }
    }
  }
  return crc.value();
}

/// Whether some spec of `state` filters by default, so the pin covers
/// the selectivity test and not only the key hashing.
bool some_spec_filters(const DatasetState& state) {
  for (const auto& spec : state.bundle().query_types) {
    if (engine::default_spec_for(spec.kind).selectivity < 1.0) return true;
  }
  return false;
}

TEST(MapRowsGoldenTest, TpcDsStreams) {
  const DatasetState state = golden_state(workload::WorkloadKind::TpcDs);
  ASSERT_TRUE(some_spec_filters(state));
  const std::uint32_t got = streams_crc(state);
  EXPECT_EQ(got, 0xd4d6c2e7u) << std::hex << "actual crc32 0x" << got;
}

TEST(MapRowsGoldenTest, BigDataStreams) {
  const DatasetState state = golden_state(workload::WorkloadKind::BigData);
  ASSERT_TRUE(some_spec_filters(state));
  const std::uint32_t got = streams_crc(state);
  EXPECT_EQ(got, 0xce0e454cu) << std::hex << "actual crc32 0x" << got;
}

}  // namespace
}  // namespace bohr::core

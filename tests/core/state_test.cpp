#include "core/state.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../olap/row_tables.h"
#include "common/check.h"
#include "core/similarity_service.h"

namespace bohr::core {
namespace {

workload::GeneratorConfig gen_config() {
  workload::GeneratorConfig cfg;
  cfg.sites = 3;
  cfg.rows_per_site = 60;
  cfg.gb_per_site = 6.0;
  cfg.seed = 21;
  return cfg;
}

DatasetState make_state(bool with_cubes,
                        const workload::GeneratorConfig& cfg = gen_config()) {
  auto bundle =
      workload::generate_dataset(workload::WorkloadKind::BigData, 0, cfg);
  Rng rng(3);
  auto mix = workload::sample_query_mix(bundle, rng);
  return DatasetState(std::move(bundle), std::move(mix), with_cubes);
}

TEST(DatasetStateTest, CubesTrackRows) {
  const DatasetState state = make_state(true);
  for (std::size_t s = 0; s < state.site_count(); ++s) {
    EXPECT_EQ(state.cubes_at(s).base_cube().total_records(),
              state.rows_at(s).size());
  }
}

TEST(DatasetStateTest, NoCubesMode) {
  const DatasetState state = make_state(false);
  EXPECT_FALSE(state.has_cubes());
  EXPECT_THROW(state.cubes_at(0), bohr::ContractViolation);
}

TEST(DatasetStateTest, InputBytesConsistent) {
  const DatasetState state = make_state(true);
  double total = 0.0;
  for (std::size_t s = 0; s < state.site_count(); ++s) {
    total += state.input_bytes_at(s);
  }
  EXPECT_NEAR(total, state.total_input_bytes(), 1.0);
}

TEST(DatasetStateTest, MapRowsFullSelectivity) {
  const DatasetState state = make_state(true);
  const auto stream = state.map_rows(0, 0, 1.0, 42);
  EXPECT_EQ(stream.size(), state.rows_at(0).size());
}

TEST(DatasetStateTest, MapRowsSelectivityFilters) {
  const DatasetState state = make_state(true);
  const auto full = state.map_rows(0, 0, 1.0, 42);
  const auto half = state.map_rows(0, 0, 0.5, 42);
  EXPECT_LT(half.size(), full.size());
  EXPECT_GT(half.size(), 0u);
  // Deterministic: same salt -> same subset.
  const auto again = state.map_rows(0, 0, 0.5, 42);
  EXPECT_EQ(half, again);
}

TEST(DatasetStateTest, KeysMatchQueryTypeProjection) {
  const DatasetState state = make_state(true);
  const std::size_t specs = state.bundle().query_types.size();
  ASSERT_GE(specs, 3u);
  const std::vector<std::uint64_t> keys = state.row_keys(0);
  // Row 0's keys. Query types 0 and 1 (scan/udf) group by url; type 2 by
  // region+date.
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_NE(keys[0], keys[2]);
}

TEST(DatasetStateTest, RowKeysMatchMapRowsAtFullSelectivity) {
  const DatasetState state = make_state(true);
  const std::size_t specs = state.bundle().query_types.size();
  for (std::size_t s = 0; s < state.site_count(); ++s) {
    const std::vector<std::uint64_t> keys = state.row_keys(s);
    ASSERT_EQ(keys.size(), state.rows_at(s).size() * specs);
    for (std::size_t t = 0; t < specs; ++t) {
      const engine::RecordStream mapped =
          state.map_rows(s, t, 1.0, state.query_salt(t));
      ASSERT_EQ(mapped.size(), state.rows_at(s).size());
      for (std::size_t r = 0; r < mapped.size(); ++r) {
        EXPECT_EQ(keys[r * specs + t], mapped[r])
            << "site " << s << " row " << r << " spec " << t;
      }
    }
  }
}

TEST(DatasetStateTest, MoveRowsUpdatesBothSides) {
  DatasetState state = make_state(true);
  const std::size_t before_src = state.rows_at(0).size();
  const std::size_t before_dst = state.rows_at(1).size();
  state.move_rows_multi(0, {{1, {0, 5, 7}}});
  EXPECT_EQ(state.rows_at(0).size(), before_src - 3);
  EXPECT_EQ(state.rows_at(1).size(), before_dst + 3);
  EXPECT_EQ(state.cubes_at(0).base_cube().total_records(), before_src - 3);
  EXPECT_EQ(state.cubes_at(1).base_cube().total_records(), before_dst + 3);
}

TEST(DatasetStateTest, MoveRowsMultiDisjointDestinations) {
  DatasetState state = make_state(true);
  const std::size_t before0 = state.rows_at(0).size();
  const std::size_t before1 = state.rows_at(1).size();
  const std::size_t before2 = state.rows_at(2).size();
  state.move_rows_multi(0, {{1, {0, 1, 2}}, {2, {3, 4}}});
  EXPECT_EQ(state.rows_at(0).size(), before0 - 5);
  EXPECT_EQ(state.cubes_at(1).base_cube().total_records(), before1 + 3);
  EXPECT_EQ(state.cubes_at(2).base_cube().total_records(), before2 + 2);
}

TEST(DatasetStateTest, MoveRowsMultiPinsResultOrder) {
  // Unsorted indices interleaved over two destinations: the survivors
  // keep their order, and each destination appends its rows in
  // descending source-index order.
  DatasetState state = make_state(true);
  const std::vector<olap::Row> src = olap::rows_of(state.rows_at(0));
  const std::vector<olap::Row> dst1 = olap::rows_of(state.rows_at(1));
  const std::vector<olap::Row> dst2 = olap::rows_of(state.rows_at(2));
  state.move_rows_multi(0, {{1, {9, 2, 14, 5}}, {2, {11, 0, 7}}});

  std::vector<olap::Row> want_src;
  for (std::size_t r = 0; r < src.size(); ++r) {
    if (r != 0 && r != 2 && r != 5 && r != 7 && r != 9 && r != 11 &&
        r != 14) {
      want_src.push_back(src[r]);
    }
  }
  std::vector<olap::Row> want1 = dst1;
  for (const std::size_t r : {14, 9, 5, 2}) want1.push_back(src[r]);
  std::vector<olap::Row> want2 = dst2;
  for (const std::size_t r : {11, 7, 0}) want2.push_back(src[r]);
  EXPECT_EQ(olap::rows_of(state.rows_at(0)), want_src);
  EXPECT_EQ(olap::rows_of(state.rows_at(1)), want1);
  EXPECT_EQ(olap::rows_of(state.rows_at(2)), want2);
  EXPECT_EQ(state.cubes_at(0).base_cube().total_records(), want_src.size());
}

TEST(DatasetStateTest, MoveRowsDuplicateIndexThrows) {
  DatasetState state = make_state(true);
  EXPECT_THROW(state.move_rows_multi(0, {{1, {0, 1}}, {2, {1}}}),
               bohr::ContractViolation);
}

TEST(DatasetStateTest, MovedRowsLandAtDestination) {
  DatasetState state = make_state(true);
  const olap::Row moved_row = olap::row_of(state.rows_at(0), 4);
  state.move_rows_multi(0, {{2, {4}}});
  EXPECT_EQ(olap::row_of(state.rows_at(2), state.rows_at(2).size() - 1),
            moved_row);
}

TEST(DatasetStateTest, AppendRowsImmediate) {
  DatasetState state = make_state(true);
  const auto extra = state.rows_at(1);  // clone site 1's rows
  const std::size_t before = state.rows_at(0).size();
  state.append_rows(0, extra);
  EXPECT_EQ(state.rows_at(0).size(), before + extra.size());
  EXPECT_EQ(state.cubes_at(0).base_cube().total_records(),
            before + extra.size());
}

TEST(DatasetStateTest, CubeTypeWeightsMergeSharedCubes) {
  const DatasetState state = make_state(true);
  // BigData query types 0 and 1 share the {url} dimension cube.
  const auto weights = state.cube_type_weights();
  EXPECT_LT(weights.size(), state.bundle().query_types.size() + 1);
  double total = 0.0;
  for (const auto& w : weights) total += w.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SimilarityServiceTest, SelfSimilarityInRange) {
  const DatasetState state = make_state(true);
  const auto sim = check_similarity(state, SimilarityOptions{30});
  for (std::size_t i = 0; i < state.site_count(); ++i) {
    EXPECT_GE(sim.self[i], 0.0);
    EXPECT_LE(sim.self[i], 1.0);
    EXPECT_DOUBLE_EQ(sim.pair[i][i], sim.self[i]);
  }
  EXPECT_GT(sim.checking_seconds, 0.0);
  EXPECT_GT(sim.probe_bytes, 0.0);
}

TEST(SimilarityServiceTest, SharedHotKeysYieldPositivePairSimilarity) {
  const DatasetState state = make_state(true);
  const auto sim = check_similarity(state, SimilarityOptions{30});
  // Zipf-hot keys recur at every site, so probes must find matches.
  double max_pair = 0.0;
  for (std::size_t i = 0; i < state.site_count(); ++i) {
    for (std::size_t j = 0; j < state.site_count(); ++j) {
      if (i != j) max_pair = std::max(max_pair, sim.pair[i][j]);
    }
  }
  EXPECT_GT(max_pair, 0.2);
}

TEST(SimilarityServiceTest, MatchedKeysAreBounded) {
  const DatasetState state = make_state(true);
  const SimilarityOptions options{10};
  const auto sim = check_similarity(state, options);
  for (std::size_t i = 0; i < state.site_count(); ++i) {
    for (std::size_t j = 0; j < state.site_count(); ++j) {
      EXPECT_LE(sim.matched_keys[i][j].size(), options.probe_k);
    }
  }
}

TEST(SimilarityServiceTest, LargerProbeFindsMoreMatches) {
  const DatasetState state = make_state(true);
  const auto small = check_similarity(state, SimilarityOptions{5});
  const auto large = check_similarity(state, SimilarityOptions{40});
  std::size_t small_total = 0;
  std::size_t large_total = 0;
  for (std::size_t i = 0; i < state.site_count(); ++i) {
    for (std::size_t j = 0; j < state.site_count(); ++j) {
      small_total += small.matched_keys[i][j].size();
      large_total += large.matched_keys[i][j].size();
    }
  }
  EXPECT_GE(large_total, small_total);
}

}  // namespace
}  // namespace bohr::core

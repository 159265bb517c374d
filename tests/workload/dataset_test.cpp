#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "../olap/row_tables.h"
#include "common/check.h"
#include "olap/cube_builder.h"
#include "workload/dynamic.h"
#include "workload/query_mix.h"

namespace bohr::workload {
namespace {

GeneratorConfig small_config(InitialPlacement placement) {
  GeneratorConfig cfg;
  cfg.sites = 4;
  cfg.rows_per_site = 100;
  cfg.gb_per_site = 10.0;
  cfg.rows_per_block = 25;  // 16 blocks deal evenly onto 4 sites
  cfg.locality_groups = 6;
  cfg.placement = placement;
  cfg.seed = 11;
  return cfg;
}

TEST(DatasetGenTest, RowCountsAndBytes) {
  for (const WorkloadKind kind :
       {WorkloadKind::BigData, WorkloadKind::TpcDs, WorkloadKind::Facebook}) {
    const auto d =
        generate_dataset(kind, 0, small_config(InitialPlacement::Random));
    EXPECT_EQ(d.site_rows.size(), 4u);
    EXPECT_EQ(d.total_rows(), 400u);
    EXPECT_NEAR(d.total_bytes(), 4 * 10.0 * 1e9, 1.0);
    EXPECT_GT(d.bytes_per_row, 0.0);
    EXPECT_FALSE(to_string(kind).empty());
  }
}

TEST(DatasetGenTest, RandomPlacementBalances) {
  const auto d = generate_dataset(WorkloadKind::BigData, 0,
                                  small_config(InitialPlacement::Random));
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(d.site_rows[s].size(), 100u);
}

TEST(DatasetGenTest, DeterministicForSameSeed) {
  const auto a = generate_dataset(WorkloadKind::TpcDs, 3,
                                  small_config(InitialPlacement::Random));
  const auto b = generate_dataset(WorkloadKind::TpcDs, 3,
                                  small_config(InitialPlacement::Random));
  ASSERT_EQ(a.total_rows(), b.total_rows());
  for (std::size_t s = 0; s < a.site_rows.size(); ++s) {
    EXPECT_EQ(olap::rows_of(a.site_rows[s]), olap::rows_of(b.site_rows[s]));
  }
}

TEST(DatasetGenTest, DifferentDatasetsDiffer) {
  const auto a = generate_dataset(WorkloadKind::BigData, 0,
                                  small_config(InitialPlacement::Random));
  const auto b = generate_dataset(WorkloadKind::BigData, 1,
                                  small_config(InitialPlacement::Random));
  EXPECT_NE(olap::rows_of(a.site_rows[0]), olap::rows_of(b.site_rows[0]));
}

TEST(DatasetGenTest, RowsMatchSchema) {
  for (const WorkloadKind kind :
       {WorkloadKind::BigData, WorkloadKind::TpcDs, WorkloadKind::Facebook}) {
    const auto d =
        generate_dataset(kind, 0, small_config(InitialPlacement::Random));
    const std::size_t arity = d.cube_spec.schema.attribute_count();
    for (const auto& site : d.site_rows) {
      ASSERT_EQ(site.attribute_count(), arity);
      for (std::size_t a = 0; a < arity; ++a) {
        EXPECT_EQ(site.type(a), d.cube_spec.schema.attribute(a).type);
      }
      for (const auto& row : olap::rows_of(site)) {
        EXPECT_EQ(row.size(), arity);
      }
    }
    // The cube spec must be internally consistent and buildable.
    const olap::CubeBuilder builder(d.cube_spec);
    EXPECT_GT(builder.spec().dimensions.size(), 0u);
  }
}

TEST(DatasetGenTest, QueryTypesReferenceValidDims) {
  for (const WorkloadKind kind :
       {WorkloadKind::BigData, WorkloadKind::TpcDs, WorkloadKind::Facebook}) {
    const auto d =
        generate_dataset(kind, 0, small_config(InitialPlacement::Random));
    EXPECT_GE(d.query_types.size(), 2u);
    double total_weight = 0.0;
    for (const auto& qt : d.query_types) {
      EXPECT_FALSE(qt.dim_positions.empty());
      for (const auto p : qt.dim_positions) {
        EXPECT_LT(p, d.cube_spec.dimensions.size());
      }
      total_weight += qt.weight;
    }
    EXPECT_NEAR(total_weight, 1.0, 1e-9);
  }
}

TEST(DatasetGenTest, KeysRepeatAcrossSites) {
  // Cross-site similarity requires shared hot keys.
  const auto d = generate_dataset(WorkloadKind::BigData, 0,
                                  small_config(InitialPlacement::Random));
  std::unordered_set<std::int64_t> site0;
  for (const auto& row : olap::rows_of(d.site_rows[0])) {
    site0.insert(std::get<std::int64_t>(row[0]));
  }
  std::size_t shared = 0;
  for (const auto& row : olap::rows_of(d.site_rows[1])) {
    if (site0.contains(std::get<std::int64_t>(row[0]))) ++shared;
  }
  EXPECT_GT(shared, 10u);  // substantial overlap out of 100 rows
}

TEST(DatasetGenTest, LocalityPlacementClustersLocalityAttr) {
  // Under locality-aware placement each site holds few distinct regions;
  // under random placement it holds nearly all of them.
  const auto local = generate_dataset(
      WorkloadKind::BigData, 0, small_config(InitialPlacement::LocalityAware));
  const auto random = generate_dataset(WorkloadKind::BigData, 0,
                                       small_config(InitialPlacement::Random));
  auto distinct_regions = [](const olap::RowTable& rows) {
    std::unordered_set<std::int64_t> regions;
    for (const auto& row : olap::rows_of(rows)) {
      regions.insert(std::get<std::int64_t>(row[1]));
    }
    return regions.size();
  };
  EXPECT_LT(distinct_regions(local.site_rows[0]),
            distinct_regions(random.site_rows[0]));
}

TEST(QueryMixTest, CountsWithinBounds) {
  const auto d = generate_dataset(WorkloadKind::BigData, 0,
                                  small_config(InitialPlacement::Random));
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto mix = sample_query_mix(d, rng, 2, 10);
    EXPECT_GE(mix.total_queries(), 2u);
    EXPECT_LE(mix.total_queries(), 10u);
    EXPECT_EQ(mix.counts.size(), d.query_types.size());
  }
}

TEST(QueryMixTest, WeightsNormalized) {
  const auto d = generate_dataset(WorkloadKind::Facebook, 0,
                                  small_config(InitialPlacement::Random));
  Rng rng(6);
  const auto mix = sample_query_mix(d, rng);
  double total = 0.0;
  for (const auto w : mix.weights()) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DynamicFeedTest, SplitPreservesAllRows) {
  const auto d = generate_dataset(WorkloadKind::TpcDs, 0,
                                  small_config(InitialPlacement::Random));
  const auto feed = split_dynamic(d, 0.25, 5);
  EXPECT_EQ(feed.batch_count(), 5u);
  for (std::size_t s = 0; s < 4; ++s) {
    std::size_t total = feed.initial[s].size();
    for (const auto& batch : feed.batches) total += batch[s].size();
    EXPECT_EQ(total, d.site_rows[s].size());
    EXPECT_EQ(feed.initial[s].size(), 25u);  // 25% of 100
  }
}

TEST(DynamicFeedTest, BatchesRoughlyEqual) {
  const auto d = generate_dataset(WorkloadKind::TpcDs, 0,
                                  small_config(InitialPlacement::Random));
  const auto feed = split_dynamic(d, 0.25, 3);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(feed.batches[0][s].size(), 25u);
    EXPECT_EQ(feed.batches[1][s].size(), 25u);
    EXPECT_EQ(feed.batches[2][s].size(), 25u);
  }
}

TEST(DynamicFeedTest, InvalidArgsThrow) {
  const auto d = generate_dataset(WorkloadKind::TpcDs, 0,
                                  small_config(InitialPlacement::Random));
  EXPECT_THROW(split_dynamic(d, 0.0, 3), bohr::ContractViolation);
  EXPECT_THROW(split_dynamic(d, 0.5, 0), bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::workload

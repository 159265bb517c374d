#include "similarity/probe.h"

#include <gtest/gtest.h>

#include <string>

#include "../olap/default_cube_spec.h"
#include "../olap/row_tables.h"
#include "common/check.h"

namespace bohr::similarity {
namespace {

using olap::AttributeType;
using olap::CubeBuilder;
using olap::DatasetCubes;
using olap::QueryTypeId;
using olap::Row;
using olap::Schema;

Schema url_schema() {
  return Schema({{"url", AttributeType::Text, false},
                 {"region", AttributeType::Integer, false},
                 {"score", AttributeType::Real, true}});
}

DatasetCubes make_store() {
  return DatasetCubes(CubeBuilder(default_cube_spec(url_schema())));
}

Row row(const std::string& url, std::int64_t region, double score) {
  return Row{url, region, score};
}

/// Adds `rows` to `store` as one table.
void add(DatasetCubes& store, const std::vector<Row>& rows) {
  const olap::RowTable table = olap::table_of(url_schema(), rows);
  store.add_rows(table, 0, table.size());
}

TEST(ProbeBuildTest, TopClustersBecomeRepresentatives) {
  DatasetCubes store = make_store();
  const QueryTypeId by_url = store.register_query_type({0});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(row("popular", 1, 1.0));
  for (int i = 0; i < 3; ++i) rows.push_back(row("middling", 1, 1.0));
  rows.push_back(row("rare", 1, 1.0));
  add(store, rows);

  const std::vector<QueryTypeWeight> weights{{by_url, 1.0}};
  const Probe probe = build_probe(42, store, weights, 2);
  ASSERT_EQ(probe.records.size(), 2u);
  EXPECT_EQ(probe.dataset_id, 42u);
  EXPECT_EQ(probe.records[0].cluster_size, 10u);
  EXPECT_EQ(probe.records[1].cluster_size, 3u);
}

TEST(ProbeBuildTest, BudgetSplitsByQueryTypeWeight) {
  DatasetCubes store = make_store();
  const QueryTypeId by_url = store.register_query_type({0});
  const QueryTypeId by_region = store.register_query_type({1});
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(row("u" + std::to_string(i % 20), i % 7, 1.0));
  }
  add(store, rows);
  // Weights 0.8 / 0.2 with k = 30 -> 24 and 6 records (paper's example).
  const std::vector<QueryTypeWeight> weights{{by_url, 0.8}, {by_region, 0.2}};
  const Probe probe = build_probe(0, store, weights, 30);
  std::size_t url_records = 0;
  std::size_t region_records = 0;
  for (const auto& r : probe.records) {
    (r.query_type == by_url ? url_records : region_records) += 1;
  }
  // by_url has only 20 distinct clusters, so it contributes min(24, 20).
  EXPECT_EQ(url_records, 20u);
  EXPECT_EQ(region_records, 6u);
}

TEST(ProbeBuildTest, EveryPositiveWeightGetsARecord) {
  DatasetCubes store = make_store();
  const QueryTypeId a = store.register_query_type({0});
  const QueryTypeId b = store.register_query_type({1});
  add(store, std::vector<Row>{row("x", 1, 1.0), row("y", 2, 1.0)});
  const std::vector<QueryTypeWeight> weights{{a, 0.99}, {b, 0.01}};
  const Probe probe = build_probe(0, store, weights, 5);
  bool saw_b = false;
  for (const auto& r : probe.records) saw_b |= (r.query_type == b);
  EXPECT_TRUE(saw_b);
}

TEST(ProbeEvalTest, IdenticalDataScoresOne) {
  DatasetCubes sender = make_store();
  DatasetCubes receiver = make_store();
  const QueryTypeId qt_s = sender.register_query_type({0});
  receiver.register_query_type({0});
  const std::vector<Row> rows{row("a", 1, 1.0), row("a", 1, 1.0),
                              row("b", 2, 1.0)};
  add(sender, rows);
  add(receiver, rows);
  const std::vector<QueryTypeWeight> weights{{qt_s, 1.0}};
  const Probe probe = build_probe(0, sender, weights, 2);
  const ProbeEvaluation eval = evaluate_probe(probe, receiver);
  EXPECT_DOUBLE_EQ(eval.similarity, 1.0);
  for (const auto m : eval.matched) EXPECT_EQ(m, 1);
}

TEST(ProbeEvalTest, DisjointDataScoresZero) {
  DatasetCubes sender = make_store();
  DatasetCubes receiver = make_store();
  const QueryTypeId qt = sender.register_query_type({0});
  receiver.register_query_type({0});
  add(sender, std::vector<Row>{row("a", 1, 1.0), row("b", 1, 1.0)});
  add(receiver, std::vector<Row>{row("c", 1, 1.0), row("d", 1, 1.0)});
  const std::vector<QueryTypeWeight> weights{{qt, 1.0}};
  const Probe probe = build_probe(0, sender, weights, 2);
  const ProbeEvaluation eval = evaluate_probe(probe, receiver);
  EXPECT_DOUBLE_EQ(eval.similarity, 0.0);
}

TEST(ProbeEvalTest, WeightedByClusterSize) {
  DatasetCubes sender = make_store();
  DatasetCubes receiver = make_store();
  const QueryTypeId qt = sender.register_query_type({0});
  receiver.register_query_type({0});
  std::vector<Row> sender_rows;
  for (int i = 0; i < 9; ++i) sender_rows.push_back(row("big", 1, 1.0));
  sender_rows.push_back(row("small", 1, 1.0));
  add(sender, sender_rows);
  // Receiver only has the big cluster's key.
  add(receiver, std::vector<Row>{row("big", 1, 5.0)});
  const std::vector<QueryTypeWeight> weights{{qt, 1.0}};
  const Probe probe = build_probe(0, sender, weights, 2);
  const ProbeEvaluation eval = evaluate_probe(probe, receiver);
  EXPECT_DOUBLE_EQ(eval.similarity, 0.9);  // 9 of 10 weighted records match
}

TEST(ProbeEvalTest, MatchVectorAlignsWithRecords) {
  DatasetCubes sender = make_store();
  DatasetCubes receiver = make_store();
  const QueryTypeId qt = sender.register_query_type({0});
  receiver.register_query_type({0});
  add(sender, std::vector<Row>{row("hit", 1, 1.0), row("hit", 1, 1.0),
                                   row("miss", 1, 1.0)});
  add(receiver, std::vector<Row>{row("hit", 9, 2.0)});
  const std::vector<QueryTypeWeight> weights{{qt, 1.0}};
  const Probe probe = build_probe(0, sender, weights, 2);
  const ProbeEvaluation eval = evaluate_probe(probe, receiver);
  ASSERT_EQ(eval.matched.size(), 2u);
  EXPECT_EQ(eval.matched[0], 1);  // "hit" (bigger cluster) first
  EXPECT_EQ(eval.matched[1], 0);
}

TEST(ProbeTest, WireBytesScaleWithRecords) {
  DatasetCubes sender = make_store();
  const QueryTypeId qt = sender.register_query_type({0});
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(row("u" + std::to_string(i), 1, 1.0));
  add(sender, rows);
  const std::vector<QueryTypeWeight> weights{{qt, 1.0}};
  const Probe small = build_probe(0, sender, weights, 5);
  const Probe large = build_probe(0, sender, weights, 40);
  EXPECT_LT(small.wire_bytes(), large.wire_bytes());
}

TEST(SelfSimilarityTest, RepetitionRaisesScore) {
  DatasetCubes diverse = make_store();
  DatasetCubes repetitive = make_store();
  const QueryTypeId qt_d = diverse.register_query_type({0});
  const QueryTypeId qt_r = repetitive.register_query_type({0});
  std::vector<Row> unique_rows;
  std::vector<Row> repeated_rows;
  for (int i = 0; i < 20; ++i) {
    unique_rows.push_back(row("u" + std::to_string(i), 1, 1.0));
    repeated_rows.push_back(row("same", 1, 1.0));
  }
  add(diverse, unique_rows);
  add(repetitive, repeated_rows);
  const std::vector<QueryTypeWeight> wd{{qt_d, 1.0}};
  const std::vector<QueryTypeWeight> wr{{qt_r, 1.0}};
  EXPECT_DOUBLE_EQ(self_similarity(diverse, wd), 0.0);
  EXPECT_NEAR(self_similarity(repetitive, wr), 0.95, 1e-9);
}

TEST(ProbeBudgetTest, ProportionalToDatasetSize) {
  // Mirrors Table 2: sizes 0.87, 4.32, 3.21, 0.57 GB with k = 30
  // allocate roughly 3 / 15 / 10 / 2.
  const std::vector<double> sizes{0.87, 4.32, 3.21, 0.57};
  const auto alloc = allocate_probe_budget(sizes, 30);
  std::size_t total = 0;
  for (const auto a : alloc) total += a;
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(alloc[0], 3u);
  EXPECT_EQ(alloc[1], 14u);  // largest-remainder apportionment
  EXPECT_EQ(alloc[2], 11u);
  EXPECT_EQ(alloc[3], 2u);
  for (const auto a : alloc) EXPECT_GE(a, 1u);
}

TEST(ProbeBudgetTest, EveryDatasetGetsAtLeastOne) {
  const std::vector<double> sizes{100.0, 0.001, 0.001};
  const auto alloc = allocate_probe_budget(sizes, 5);
  for (const auto a : alloc) EXPECT_GE(a, 1u);
}

}  // namespace
}  // namespace bohr::similarity

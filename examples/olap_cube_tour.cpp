// A tour of the OLAP substrate as a standalone library (§2.2, §4): build
// a sales cube, run the classic operations (slice / dice / roll-up /
// pivot), derive dimension cubes for query types, and run a probe-based
// similarity check between two "sites" — all without the distributed
// engine.
//
// Run: ./build/examples/olap_cube_tour
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "olap/cube_store.h"
#include "similarity/probe.h"

int main() {
  using namespace bohr;
  using olap::AttributeType;
  using olap::Dimension;
  using olap::Row;

  // Schema of Figure 2: time x region x product with a sales measure.
  const olap::Schema schema({{"year", AttributeType::Integer, false},
                             {"region", AttributeType::Text, false},
                             {"product", AttributeType::Text, false},
                             {"sales", AttributeType::Real, true}});
  olap::CubeSpec spec;
  spec.schema = schema;
  spec.dim_attrs = {0, 1, 2};
  spec.dimensions = {Dimension("year", {{"year", 1}, {"triennium", 3}}),
                     Dimension("region"), Dimension("product")};
  spec.measure_attr = 3;
  const olap::CubeBuilder builder(spec);

  // Rows are stored as typed columns, one per attribute; each record is
  // appended value by value and checked against the schema's types.
  olap::RowTable rows(schema);
  for (const Row& row : std::vector<Row>{
           {std::int64_t{2012}, "EMEA", "A", 10.0},
           {std::int64_t{2012}, "EMEA", "B", 4.0},
           {std::int64_t{2013}, "EMEA", "A", 7.0},
           {std::int64_t{2013}, "APAC", "A", 6.0},
           {std::int64_t{2014}, "APAC", "A", 3.0},
           {std::int64_t{2014}, "APAC", "B", 8.0},
           {std::int64_t{2014}, "EMEA", "A", 2.0},
       }) {
    rows.append(row);
  }
  const olap::OlapCube cube = builder.build(rows);
  std::printf("Base cube: %zu records in %zu cells\n",
              static_cast<std::size_t>(cube.total_records()),
              cube.cell_count());

  // slice: all 2014 sales (drops the time dimension).
  const auto y2014 = olap::value_to_member(olap::Value(std::int64_t{2014}));
  const olap::OlapCube sales_2014 = cube.slice(0, y2014);
  std::printf("slice(year=2014): %zu cells over (region, product)\n",
              sales_2014.cell_count());

  // dice: product A only, every dimension retained.
  const auto product_a = olap::value_to_member(olap::Value(std::string{"A"}));
  const olap::OlapCube only_a = cube.dice(2, std::unordered_set<olap::MemberId>{product_a});
  std::printf("dice(product=A):  %zu cells, %llu records\n",
              only_a.cell_count(),
              static_cast<unsigned long long>(only_a.total_records()));

  // roll-up: coarsen years to the triennium level.
  const olap::OlapCube by_triennium = cube.roll_up(0, 1);
  std::printf("roll_up(time->triennium): %zu cells (was %zu)\n",
              by_triennium.cell_count(), cube.cell_count());

  // pivot: reorder to (product, region, year).
  const olap::OlapCube pivoted = cube.pivot({2, 1, 0});
  std::printf("pivot: first dimension is now '%s'\n",
              pivoted.dimension(0).name().c_str());

  // dimension cube: aggregate regions away, keep (product, year).
  const olap::OlapCube product_year = cube.project({2, 0});
  std::printf("project(product, year): %zu cells; combiner effectiveness "
              "%.2f\n\n",
              product_year.cell_count(), cube.combine_effectiveness());

  // --- Probe-based similarity between two sites -------------------------
  olap::DatasetCubes site_a{olap::CubeBuilder(spec)};
  olap::DatasetCubes site_b{olap::CubeBuilder(spec)};
  const olap::QueryTypeId by_product_a = site_a.register_query_type({2});
  site_b.register_query_type({2});
  site_a.add_rows(rows, 0, rows.size());
  // Site B shares product A but not product B, plus a private product C.
  olap::RowTable rows_b(schema);
  rows_b.append({std::int64_t{2014}, "AMER", "A", 9.0});
  rows_b.append({std::int64_t{2014}, "AMER", "A", 1.0});
  rows_b.append({std::int64_t{2014}, "AMER", "C", 5.0});
  site_b.add_rows(rows_b, 0, rows_b.size());

  const std::vector<similarity::QueryTypeWeight> weights{{by_product_a, 1.0}};
  const similarity::Probe probe =
      similarity::build_probe(0, site_a, weights, 2);
  const similarity::ProbeEvaluation eval =
      similarity::evaluate_probe(probe, site_b);
  std::printf("Probe from site A (top-%zu product clusters) scored at "
              "site B:\n  similarity S_ab = %.2f  (matched %zu of %zu "
              "probe records)\n",
              probe.records.size(), eval.similarity,
              static_cast<std::size_t>(
                  std::count(eval.matched.begin(), eval.matched.end(), 1)),
              eval.matched.size());
  std::printf("=> move product-A records from A to B: they merge into "
              "B's existing cells.\n");
  return 0;
}

#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../olap/row_tables.h"
#include "common/check.h"
#include "core/state.h"
#include "workload/query_mix.h"

namespace bohr::workload {
namespace {

GeneratorConfig gen_config() {
  GeneratorConfig cfg;
  cfg.sites = 3;
  cfg.rows_per_site = 50;
  cfg.gb_per_site = 3.0;
  cfg.rows_per_block = 25;
  cfg.seed = 77;
  return cfg;
}

TEST(TraceIoTest, RoundTripPreservesRows) {
  const auto original =
      generate_dataset(WorkloadKind::BigData, 2, gen_config());
  std::stringstream buffer;
  write_csv(buffer, original);
  const auto loaded = read_csv(buffer, original, 3);
  ASSERT_EQ(loaded.site_rows.size(), original.site_rows.size());
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(olap::rows_of(loaded.site_rows[s]),
              olap::rows_of(original.site_rows[s]))
        << "site " << s;
  }
  EXPECT_EQ(loaded.dataset_id, original.dataset_id);
  EXPECT_DOUBLE_EQ(loaded.bytes_per_row, original.bytes_per_row);
}

TEST(TraceIoTest, RoundTripAllWorkloads) {
  for (const WorkloadKind kind :
       {WorkloadKind::BigData, WorkloadKind::TpcDs, WorkloadKind::Facebook}) {
    const auto original = generate_dataset(kind, 0, gen_config());
    std::stringstream buffer;
    write_csv(buffer, original);
    const auto loaded = read_csv(buffer, original, 3);
    EXPECT_EQ(loaded.total_rows(), original.total_rows());
  }
}

TEST(TraceIoTest, HeaderNamesSchema) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  write_csv(buffer, bundle);
  std::string header;
  std::getline(buffer, header);
  EXPECT_EQ(header, "site,url,region,date,revenue");
}

TEST(TraceIoTest, QuotedTextFieldsRoundTrip) {
  // Hand-build a bundle with tricky text values.
  olap::Schema schema({{"name", olap::AttributeType::Text, false},
                       {"score", olap::AttributeType::Real, true}});
  DatasetBundle bundle;
  bundle.cube_spec.schema = schema;
  bundle.cube_spec.dim_attrs = {0};
  bundle.cube_spec.dimensions = {olap::Dimension("name")};
  bundle.cube_spec.measure_attr = 1;
  bundle.bytes_per_row = 1.0;
  bundle.site_rows = {
      olap::table_of(schema, {{std::string{"plain"}, 1.0},
                              {std::string{"with,comma"}, 2.0}}),
      olap::table_of(schema, {{std::string{"with \"quotes\""}, 3.0}})};

  std::stringstream buffer;
  write_csv(buffer, bundle);
  const auto loaded = read_csv(buffer, bundle, 2);
  EXPECT_EQ(olap::row_of(loaded.site_rows[0], 1),
            (olap::Row{std::string{"with,comma"}, 2.0}));
  EXPECT_EQ(olap::row_of(loaded.site_rows[1], 0),
            (olap::Row{std::string{"with \"quotes\""}, 3.0}));
}

TEST(TraceIoTest, RejectsWrongHeader) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer("wrong,header,entirely\n");
  EXPECT_THROW(read_csv(buffer, bundle, 3), bohr::ContractViolation);
}

TEST(TraceIoTest, RejectsOutOfRangeSite) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  buffer << "site,url,region,date,revenue\n9,1,1,1,1.0\n";
  EXPECT_THROW(read_csv(buffer, bundle, 3), bohr::ContractViolation);
  for (const std::string site : {"3", "9", "18446744073709551615"}) {
    std::stringstream second;
    second << "site,url,region,date,revenue\n0,1,2,3,4.0\n"
           << site << ",1,2,3,4.0\n";
    try {
      read_csv(second, bundle, 3);
      ADD_FAILURE() << "site " << site << " accepted";
    } catch (const bohr::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("record 1: site index " + site),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceIoTest, RejectsShortRow) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  buffer << "site,url,region,date,revenue\n0,1,2\n";
  EXPECT_THROW(read_csv(buffer, bundle, 3), bohr::ContractViolation);
}

TEST(TraceIoTest, MalformedValueErrorNamesRecordAndAttribute) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  buffer << "site,url,region,date,revenue\n"
         << "0,1,2,3,4.0\n"
         << "1,1,oops,3,4.0\n";  // record 1, attribute 1 (region)
  try {
    read_csv(buffer, bundle, 3);
    FAIL() << "malformed record accepted";
  } catch (const bohr::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("attribute 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'oops'"), std::string::npos) << what;
  }
}

TEST(TraceIoTest, TrailingGarbageInNumberIsNamed) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  buffer << "site,url,region,date,revenue\n0,1,2,3,4.0x\n";
  try {
    read_csv(buffer, bundle, 3);
    FAIL() << "trailing garbage accepted";
  } catch (const bohr::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 0"), std::string::npos) << what;
    EXPECT_NE(what.find("'4.0x'"), std::string::npos) << what;
  }
}

TEST(TraceIoTest, BadSiteIndexIsNamed) {
  const auto bundle = generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  buffer << "site,url,region,date,revenue\nnowhere,1,2,3,4.0\n";
  try {
    read_csv(buffer, bundle, 3);
    FAIL() << "bad site index accepted";
  } catch (const bohr::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("'nowhere'"), std::string::npos)
        << e.what();
  }
  // The whole field must be a site index: no sign, space, suffix or
  // fraction, and nothing past 64 bits.
  for (const std::string site : {"1x", " 1", "+1", "1.9", "-1", "",
                                 "18446744073709551616"}) {
    std::stringstream bad;
    bad << "site,url,region,date,revenue\n" << site << ",1,2,3,4.0\n";
    try {
      read_csv(bad, bundle, 3);
      ADD_FAILURE() << "site '" << site << "' accepted";
    } catch (const bohr::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("record 0: bad site index '" +
                                           site + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceIoTest, LoadedBundleDrivesTheFullPipeline) {
  // A CSV-imported dataset must be usable as controller state.
  const auto original =
      generate_dataset(WorkloadKind::BigData, 0, gen_config());
  std::stringstream buffer;
  write_csv(buffer, original);
  const auto loaded = read_csv(buffer, original, 3);
  Rng rng(1);
  auto mix = sample_query_mix(loaded, rng);
  core::DatasetState state(loaded, mix, /*with_cubes=*/true);
  EXPECT_EQ(state.cubes_at(0).base_cube().total_records(),
            loaded.site_rows[0].size());
}

}  // namespace
}  // namespace bohr::workload

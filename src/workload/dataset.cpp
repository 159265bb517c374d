#include "workload/dataset.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"

namespace bohr::workload {

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::BigData:
      return "big-data";
    case WorkloadKind::TpcDs:
      return "tpc-ds";
    case WorkloadKind::Facebook:
      return "facebook";
  }
  return "unknown";
}

std::size_t DatasetBundle::total_rows() const {
  std::size_t total = 0;
  for (const auto& rows : site_rows) total += rows.size();
  return total;
}

double DatasetBundle::total_bytes() const {
  return static_cast<double>(total_rows()) * bytes_per_row;
}

namespace {

using olap::AttributeType;
using olap::Dimension;
using olap::Row;
using olap::Schema;

/// Hot-key source with block locality: a fraction of keys comes from one
/// globally shared Zipf pool (the planet-wide hot URLs / items / files);
/// the rest from the drawing block's locality pool — a small, heavily
/// repeated key set specific to one locality group (regional users).
struct HotKeySource {
  ZipfSampler global_zipf;
  ZipfSampler pool_zipf;
  std::uint64_t global_universe;
  std::uint64_t pool_universe;
  double global_fraction;

  HotKeySource(const GeneratorConfig& config, std::size_t total_rows)
      : global_zipf(std::max<std::size_t>(
                        8, static_cast<std::size_t>(
                               static_cast<double>(total_rows) *
                               config.key_universe_fraction)),
                    config.key_skew),
        pool_zipf(std::max<std::size_t>(config.pool_universe, 4),
                  config.key_skew),
        global_universe(global_zipf.universe()),
        pool_universe(pool_zipf.universe()),
        global_fraction(config.global_key_fraction) {}

  std::int64_t draw(std::uint64_t locality_group, Rng& rng) {
    if (rng.bernoulli(global_fraction)) {
      return static_cast<std::int64_t>(global_zipf.sample(rng));
    }
    // Locality pools sit above the global universe, disjoint per group.
    const std::uint64_t base =
        global_universe + locality_group * pool_universe;
    return static_cast<std::int64_t>(base + pool_zipf.sample(rng));
  }
};

/// Rows generated in block order plus each block's locality group.
struct GeneratedRows {
  std::vector<Row> rows;  // block-contiguous
  std::vector<std::size_t> block_groups;
};

// ---- AMPLab big-data benchmark (uservisits/rankings style) --------------

olap::CubeSpec bigdata_cube_spec() {
  const Schema schema({{"url", AttributeType::Integer, false},
                       {"region", AttributeType::Integer, false},
                       {"date", AttributeType::Integer, false},
                       {"revenue", AttributeType::Real, true}});
  olap::CubeSpec spec;
  spec.schema = schema;
  spec.dim_attrs = {0, 1, 2};
  spec.dimensions = {
      Dimension("url"),
      Dimension("region"),
      Dimension("date", {{"day", 1}, {"month", 30}, {"quarter", 90}}),
  };
  spec.measure_attr = 3;
  return spec;
}

GeneratedRows generate_bigdata_rows(std::size_t total_rows,
                                    const GeneratorConfig& config, Rng& rng) {
  HotKeySource urls(config, total_rows);
  GeneratedRows out;
  out.rows.reserve(total_rows);
  // One block = one hour of one regional frontend's access log: URLs
  // cluster around the region's pool, dates around the block's hour.
  while (out.rows.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 89);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, out.rows.size() + config.rows_per_block);
    while (out.rows.size() < block_end) {
      const std::int64_t url = urls.draw(group, rng);
      const std::int64_t date =
          std::clamp<std::int64_t>(block_date + rng.range(-1, 1), 0, 89);
      const double revenue = rng.uniform(0.1, 25.0);
      out.rows.push_back(Row{url, static_cast<std::int64_t>(group), date,
                             revenue});
    }
  }
  return out;
}

std::vector<QueryTypeSpec> bigdata_query_types() {
  // Dimension positions index into cube_spec.dim_attrs: url=0, region=1,
  // date=2.
  // The aggregation query groups by a coarse attribute (the paper's
  // AMPLab aggregation groups by IP prefix), so its dimension cube has
  // chunky cells that exist at every site.
  return {
      QueryTypeSpec{{0}, 0.3, engine::QueryKind::Scan},
      QueryTypeSpec{{0}, 0.3, engine::QueryKind::Udf},
      QueryTypeSpec{{1}, 0.4, engine::QueryKind::Aggregation},
  };
}

// ---- TPC-DS (store_sales star-schema slice) ------------------------------

olap::CubeSpec tpcds_cube_spec() {
  const Schema schema({{"item", AttributeType::Integer, false},
                       {"store", AttributeType::Integer, false},
                       {"customer", AttributeType::Integer, false},
                       {"date", AttributeType::Integer, false},
                       {"sales_price", AttributeType::Real, true}});
  olap::CubeSpec spec;
  spec.schema = schema;
  spec.dim_attrs = {0, 1, 2, 3};
  spec.dimensions = {
      Dimension("item"),
      Dimension("store"),
      Dimension("customer"),
      Dimension("date", {{"day", 1}, {"month", 30}, {"quarter", 91}}),
  };
  spec.measure_attr = 4;
  return spec;
}

GeneratedRows generate_tpcds_rows(std::size_t total_rows,
                                  const GeneratorConfig& config, Rng& rng) {
  HotKeySource items(config, total_rows);
  ZipfSampler customers(
      std::max<std::size_t>(total_rows / 2, 16), 0.8);
  GeneratedRows out;
  out.rows.reserve(total_rows);
  // One block = one store's daily sales extract: items cluster around
  // the store's regional assortment (the locality pool).
  while (out.rows.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 364);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, out.rows.size() + config.rows_per_block);
    while (out.rows.size() < block_end) {
      const std::int64_t item = items.draw(group, rng);
      const auto customer = static_cast<std::int64_t>(customers.sample(rng));
      const std::int64_t date =
          std::clamp<std::int64_t>(block_date + rng.range(-2, 2), 0, 364);
      const double price = rng.uniform(0.5, 300.0);
      out.rows.push_back(Row{item, static_cast<std::int64_t>(group),
                             customer, date, price});
    }
  }
  return out;
}

std::vector<QueryTypeSpec> tpcds_query_types() {
  // item=0, store=1, customer=2, date=3.
  return {
      QueryTypeSpec{{0}, 0.35, engine::QueryKind::OlapSql},
      QueryTypeSpec{{1}, 0.4, engine::QueryKind::OlapSql},
      QueryTypeSpec{{0, 1}, 0.25, engine::QueryKind::OlapSql},
  };
}

// ---- Facebook Hadoop trace ------------------------------------------------

olap::CubeSpec facebook_cube_spec() {
  const Schema schema({{"file", AttributeType::Integer, false},
                       {"user", AttributeType::Integer, false},
                       {"job_type", AttributeType::Integer, false},
                       {"date", AttributeType::Integer, false},
                       {"io_bytes", AttributeType::Real, true}});
  olap::CubeSpec spec;
  spec.schema = schema;
  spec.dim_attrs = {0, 1, 2, 3};
  spec.dimensions = {
      Dimension("file"),
      Dimension("user"),
      Dimension("job_type"),
      Dimension("date", {{"day", 1}, {"week", 7}}),
  };
  spec.measure_attr = 4;
  return spec;
}

GeneratedRows generate_facebook_rows(std::size_t total_rows,
                                     const GeneratorConfig& config, Rng& rng) {
  GeneratorConfig heavy = config;
  heavy.key_skew = config.key_skew + 0.3;  // HDFS access is heavier-tailed
  HotKeySource files(heavy, total_rows);
  ZipfSampler users(std::max<std::size_t>(total_rows / 4, 8), 1.0);
  GeneratedRows out;
  out.rows.reserve(total_rows);
  // One block = one team's daily job batch hitting that team's files.
  while (out.rows.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 44);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, out.rows.size() + config.rows_per_block);
    while (out.rows.size() < block_end) {
      const std::int64_t file = files.draw(group, rng);
      const auto user = static_cast<std::int64_t>(users.sample(rng));
      const std::int64_t job_type = rng.range(0, 9);
      const double io = rng.uniform(1.0, 4096.0);
      out.rows.push_back(Row{file, user, job_type, block_date, io});
    }
  }
  return out;
}

std::vector<QueryTypeSpec> facebook_query_types() {
  // file=0, user=1, job_type=2, date=3.
  return {
      QueryTypeSpec{{0}, 0.5, engine::QueryKind::TraceJob},
      QueryTypeSpec{{1}, 0.3, engine::QueryKind::TraceJob},
      QueryTypeSpec{{2}, 0.2, engine::QueryKind::TraceJob},
  };
}

// ---- Placement ------------------------------------------------------------

/// Places whole blocks: random placement deals shuffled blocks round-robin
/// (the paper's "uniformly at random" workload assignment); locality-aware
/// placement sorts blocks by locality group first, clustering data "based
/// on attributes like date, region" (§8.1).
std::vector<std::vector<Row>> place_blocks(GeneratedRows generated,
                                           std::size_t sites,
                                           std::size_t rows_per_block,
                                           InitialPlacement placement,
                                           Rng& rng) {
  const std::size_t n_blocks = generated.block_groups.size();
  std::vector<std::size_t> block_order(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) block_order[b] = b;
  if (placement == InitialPlacement::Random) {
    rng.shuffle(block_order);
  } else {
    std::stable_sort(block_order.begin(), block_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return generated.block_groups[a] <
                              generated.block_groups[b];
                     });
  }
  std::vector<std::vector<Row>> per_site(sites);
  const std::size_t blocks_per_site = (n_blocks + sites - 1) / sites;
  for (std::size_t rank = 0; rank < n_blocks; ++rank) {
    const std::size_t block = block_order[rank];
    // Random: deal round-robin. Locality: contiguous group chunks.
    const std::size_t site = placement == InitialPlacement::Random
                                 ? rank % sites
                                 : std::min(rank / blocks_per_site, sites - 1);
    const std::size_t begin = block * rows_per_block;
    const std::size_t end =
        std::min(begin + rows_per_block, generated.rows.size());
    for (std::size_t i = begin; i < end; ++i) {
      per_site[site].push_back(std::move(generated.rows[i]));
    }
  }
  return per_site;
}

}  // namespace

DatasetBundle generate_dataset(WorkloadKind kind, std::size_t dataset_id,
                               const GeneratorConfig& config) {
  BOHR_EXPECTS(config.sites > 0);
  BOHR_EXPECTS(config.rows_per_site > 0);
  BOHR_EXPECTS(config.gb_per_site > 0.0);
  BOHR_EXPECTS(config.rows_per_block > 0);
  BOHR_EXPECTS(config.locality_groups > 0);
  BOHR_EXPECTS(config.global_key_fraction >= 0.0 &&
               config.global_key_fraction <= 1.0);
  Rng rng(hash_combine(config.seed, hash_combine(dataset_id,
                                                 static_cast<int>(kind))));
  const std::size_t total_rows = config.sites * config.rows_per_site;

  DatasetBundle bundle;
  bundle.dataset_id = dataset_id;
  bundle.kind = kind;
  GeneratedRows generated;
  switch (kind) {
    case WorkloadKind::BigData:
      bundle.cube_spec = bigdata_cube_spec();
      bundle.query_types = bigdata_query_types();
      generated = generate_bigdata_rows(total_rows, config, rng);
      break;
    case WorkloadKind::TpcDs:
      bundle.cube_spec = tpcds_cube_spec();
      bundle.query_types = tpcds_query_types();
      generated = generate_tpcds_rows(total_rows, config, rng);
      break;
    case WorkloadKind::Facebook:
      bundle.cube_spec = facebook_cube_spec();
      bundle.query_types = facebook_query_types();
      generated = generate_facebook_rows(total_rows, config, rng);
      break;
  }
  bundle.bytes_per_row =
      config.gb_per_site * 1e9 / static_cast<double>(config.rows_per_site);
  bundle.site_rows = place_blocks(std::move(generated), config.sites,
                                  config.rows_per_block, config.placement,
                                  rng);
  return bundle;
}

}  // namespace bohr::workload

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
using olap::RowTable;
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
  RowTable rows;  // block-contiguous
  std::vector<std::size_t> block_groups;
};

/// Reserves room for `rows` values in each column being generated.
template <typename... Columns>
void reserve_each(std::size_t rows, Columns&... columns) {
  (columns.reserve(rows), ...);
}

/// A table over `schema` that takes the generated columns, in attribute
/// order, without copying them.
template <typename... Columns>
RowTable take_columns(const Schema& schema, Columns&&... columns) {
  std::vector<RowTable::Column> taken;
  taken.reserve(sizeof...(columns));
  (taken.emplace_back(std::move(columns)), ...);
  return RowTable(schema, std::move(taken));
}

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
                                    const GeneratorConfig& config,
                                    const Schema& schema, Rng& rng) {
  HotKeySource urls(config, total_rows);
  std::vector<std::int64_t> url, region, date;
  std::vector<double> revenue;
  reserve_each(total_rows, url, region, date, revenue);
  GeneratedRows out;
  // One block = one hour of one regional frontend's access log: URLs
  // cluster around the region's pool, dates around the block's hour.
  while (url.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 89);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, url.size() + config.rows_per_block);
    while (url.size() < block_end) {
      url.push_back(urls.draw(group, rng));
      region.push_back(static_cast<std::int64_t>(group));
      date.push_back(
          std::clamp<std::int64_t>(block_date + rng.range(-1, 1), 0, 89));
      revenue.push_back(rng.uniform(0.1, 25.0));
    }
  }
  out.rows = take_columns(schema, std::move(url), std::move(region),
                          std::move(date), std::move(revenue));
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
                                  const GeneratorConfig& config,
                                  const Schema& schema, Rng& rng) {
  HotKeySource items(config, total_rows);
  ZipfSampler customers(
      std::max<std::size_t>(total_rows / 2, 16), 0.8);
  std::vector<std::int64_t> item, store, customer, date;
  std::vector<double> price;
  reserve_each(total_rows, item, store, customer, date, price);
  GeneratedRows out;
  // One block = one store's daily sales extract: items cluster around
  // the store's regional assortment (the locality pool).
  while (item.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 364);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, item.size() + config.rows_per_block);
    while (item.size() < block_end) {
      item.push_back(items.draw(group, rng));
      store.push_back(static_cast<std::int64_t>(group));
      customer.push_back(static_cast<std::int64_t>(customers.sample(rng)));
      date.push_back(
          std::clamp<std::int64_t>(block_date + rng.range(-2, 2), 0, 364));
      price.push_back(rng.uniform(0.5, 300.0));
    }
  }
  out.rows = take_columns(schema, std::move(item), std::move(store),
                          std::move(customer), std::move(date),
                          std::move(price));
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
                                     const GeneratorConfig& config,
                                     const Schema& schema, Rng& rng) {
  GeneratorConfig heavy = config;
  heavy.key_skew = config.key_skew + 0.3;  // HDFS access is heavier-tailed
  HotKeySource files(heavy, total_rows);
  ZipfSampler users(std::max<std::size_t>(total_rows / 4, 8), 1.0);
  std::vector<std::int64_t> file, user, job_type, date;
  std::vector<double> io;
  reserve_each(total_rows, file, user, job_type, date, io);
  GeneratedRows out;
  // One block = one team's daily job batch hitting that team's files.
  while (file.size() < total_rows) {
    const auto group = rng.below(config.locality_groups);
    const std::int64_t block_date = rng.range(0, 44);
    out.block_groups.push_back(group);
    const std::size_t block_end =
        std::min(total_rows, file.size() + config.rows_per_block);
    while (file.size() < block_end) {
      file.push_back(files.draw(group, rng));
      user.push_back(static_cast<std::int64_t>(users.sample(rng)));
      job_type.push_back(rng.range(0, 9));
      date.push_back(block_date);
      io.push_back(rng.uniform(1.0, 4096.0));
    }
  }
  out.rows = take_columns(schema, std::move(file), std::move(user),
                          std::move(job_type), std::move(date),
                          std::move(io));
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
/// on attributes like date, region" (§8.1). Each block's rows are copied
/// into its site's table, which is reserved for all of them up front.
std::vector<RowTable> place_blocks(const GeneratedRows& generated,
                                   const Schema& schema, std::size_t sites,
                                   std::size_t rows_per_block,
                                   InitialPlacement placement, Rng& rng) {
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
  const std::size_t blocks_per_site = (n_blocks + sites - 1) / sites;
  const auto site_of = [&](std::size_t rank) {
    // Random: deal round-robin. Locality: contiguous group chunks.
    return placement == InitialPlacement::Random
               ? rank % sites
               : std::min(rank / blocks_per_site, sites - 1);
  };
  const auto block_end = [&](std::size_t block) {
    return std::min((block + 1) * rows_per_block, generated.rows.size());
  };
  std::vector<std::size_t> site_row_counts(sites, 0);
  for (std::size_t rank = 0; rank < n_blocks; ++rank) {
    const std::size_t block = block_order[rank];
    site_row_counts[site_of(rank)] +=
        block_end(block) - block * rows_per_block;
  }
  std::vector<RowTable> per_site(sites, RowTable(schema));
  for (std::size_t s = 0; s < sites; ++s) {
    per_site[s].reserve(site_row_counts[s]);
  }
  for (std::size_t rank = 0; rank < n_blocks; ++rank) {
    const std::size_t block = block_order[rank];
    per_site[site_of(rank)].append_range(
        generated.rows, block * rows_per_block, block_end(block));
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
      generated = generate_bigdata_rows(total_rows, config,
                                        bundle.cube_spec.schema, rng);
      break;
    case WorkloadKind::TpcDs:
      bundle.cube_spec = tpcds_cube_spec();
      bundle.query_types = tpcds_query_types();
      generated = generate_tpcds_rows(total_rows, config,
                                      bundle.cube_spec.schema, rng);
      break;
    case WorkloadKind::Facebook:
      bundle.cube_spec = facebook_cube_spec();
      bundle.query_types = facebook_query_types();
      generated = generate_facebook_rows(total_rows, config,
                                         bundle.cube_spec.schema, rng);
      break;
  }
  bundle.bytes_per_row =
      config.gb_per_site * 1e9 / static_cast<double>(config.rows_per_site);
  bundle.site_rows =
      place_blocks(generated, bundle.cube_spec.schema, config.sites,
                   config.rows_per_block, config.placement, rng);
  return bundle;
}

}  // namespace bohr::workload

#include "core/state.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"

namespace bohr::core {

namespace {

/// Next DatasetState::version(); shared by every state in the process so
/// a stamp is never handed out twice.
std::uint64_t fresh_version() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::uint64_t kEngineKeySeed = 0x5EEDBEEFULL;

/// Whether `rows` has one column per attribute of `schema`, of the
/// attribute's type.
bool fits(const olap::RowTable& rows, const olap::Schema& schema) {
  if (rows.attribute_count() != schema.attribute_count()) return false;
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
    if (rows.type(a) != schema.attribute(a).type) return false;
  }
  return true;
}

/// engine_key of row `r`'s cube coordinates projected onto `positions`
/// (indices into `dim_attrs`), read from those dimensions' columns only.
std::uint64_t projected_key(const olap::RowTable& rows, std::size_t r,
                            const std::vector<std::size_t>& dim_attrs,
                            const std::vector<std::size_t>& positions) {
  std::uint64_t h = kEngineKeySeed;
  for (const std::size_t p : positions) {
    h = hash_combine(h, rows.member(dim_attrs[p], r));
  }
  return h;
}

}  // namespace

std::uint64_t engine_key(const olap::CellCoords& projected_coords) {
  std::uint64_t h = kEngineKeySeed;
  for (const olap::MemberId m : projected_coords) h = hash_combine(h, m);
  return h;
}

DatasetState::DatasetState(workload::DatasetBundle bundle,
                           workload::DatasetQueryMix mix, bool with_cubes)
    : bundle_(std::move(bundle)),
      mix_(std::move(mix)),
      builder_(bundle_.cube_spec),
      version_(fresh_version()) {
  BOHR_EXPECTS(!bundle_.site_rows.empty());
  BOHR_EXPECTS(mix_.counts.size() == bundle_.query_types.size());
  for (const olap::RowTable& rows : bundle_.site_rows) {
    BOHR_EXPECTS(fits(rows, bundle_.cube_spec.schema));
  }
  if (with_cubes) {
    // rebuild_cubes_at registers the specs in this order at every site,
    // so the ids this registration returns hold at every site.
    olap::DatasetCubes registered(builder_);
    for (const auto& qt : bundle_.query_types) {
      spec_to_cube_type_.push_back(
          registered.register_query_type(qt.dim_positions));
    }
    cubes_.assign(site_count(), registered);
    rebuild_all_cubes();
  } else {
    // Without cubes the spec->type mapping is positional.
    for (std::size_t t = 0; t < bundle_.query_types.size(); ++t) {
      spec_to_cube_type_.push_back(t);
    }
  }
}

const olap::RowTable& DatasetState::rows_at(std::size_t site) const {
  BOHR_EXPECTS(site < site_count());
  return bundle_.site_rows[site];
}

double DatasetState::input_bytes_at(std::size_t site) const {
  return static_cast<double>(rows_at(site).size()) * bundle_.bytes_per_row;
}

double DatasetState::total_input_bytes() const { return bundle_.total_bytes(); }

olap::QueryTypeId DatasetState::cube_query_type(std::size_t t) const {
  BOHR_EXPECTS(t < spec_to_cube_type_.size());
  return spec_to_cube_type_[t];
}

const olap::DatasetCubes& DatasetState::cubes_at(std::size_t site) const {
  BOHR_EXPECTS(has_cubes());
  BOHR_EXPECTS(site < cubes_.size());
  return cubes_[site];
}

std::vector<similarity::QueryTypeWeight> DatasetState::cube_type_weights()
    const {
  // Merge spec weights that map to the same registered cube type.
  std::vector<similarity::QueryTypeWeight> out;
  const std::vector<double> weights = mix_.weights();
  for (std::size_t t = 0; t < bundle_.query_types.size(); ++t) {
    const olap::QueryTypeId id = spec_to_cube_type_[t];
    auto it = std::find_if(out.begin(), out.end(), [id](const auto& w) {
      return w.query_type == id;
    });
    if (it == out.end()) {
      out.push_back(similarity::QueryTypeWeight{id, weights[t]});
    } else {
      it->weight += weights[t];
    }
  }
  // Probe building requires a positive total; fall back to uniform when
  // the sampled mix left every type at zero weight (cannot happen with
  // >=1 query, but keep the invariant locally checkable).
  double total = 0.0;
  for (const auto& w : out) total += w.weight;
  if (total <= 0.0) {
    for (auto& w : out) w.weight = 1.0;
  }
  return out;
}

std::vector<std::uint64_t> DatasetState::row_keys(std::size_t site) const {
  const olap::RowTable& rows = rows_at(site);
  const auto& dim_attrs = bundle_.cube_spec.dim_attrs;
  const auto& specs = bundle_.query_types;
  std::vector<std::uint64_t> keys(rows.size() * specs.size());
  parallel_for(rows.size(), [&](std::size_t r) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      keys[r * specs.size() + t] =
          projected_key(rows, r, dim_attrs, specs[t].dim_positions);
    }
  }, /*grain=*/1024);
  return keys;
}

engine::RecordStream DatasetState::map_rows(std::size_t site, std::size_t t,
                                            double selectivity,
                                            std::uint64_t query_salt) const {
  BOHR_EXPECTS(site < site_count());
  BOHR_EXPECTS(t < bundle_.query_types.size());
  BOHR_EXPECTS(selectivity > 0.0 && selectivity <= 1.0);
  const olap::RowTable& rows = rows_at(site);
  const auto& dim_attrs = bundle_.cube_spec.dim_attrs;
  const auto& positions = bundle_.query_types[t].dim_positions;
  engine::RecordStream out;
  out.reserve(rows.size());
  const auto threshold = static_cast<std::uint64_t>(
      selectivity * 18446744073709551615.0);  // 2^64 - 1
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t key = projected_key(rows, r, dim_attrs, positions);
    if (selectivity < 1.0 && mix64(key ^ query_salt) > threshold) continue;
    out.push_back(key);
  }
  return out;
}

std::uint64_t DatasetState::query_salt(std::size_t t) const {
  return hash_combine(dataset_id(), hash_combine(t, 0xABCD));
}

void DatasetState::move_rows_multi(std::size_t src,
                                   std::vector<MoveTarget> targets) {
  BOHR_EXPECTS(src < site_count());
  auto& src_rows = bundle_.site_rows[src];

  // Tag every requested index with its destination; validate uniqueness
  // across all targets.
  std::vector<std::pair<std::size_t, std::size_t>> tagged;  // (index, dst)
  for (const auto& target : targets) {
    BOHR_EXPECTS(target.dst < site_count());
    BOHR_EXPECTS(target.dst != src);
    for (const std::size_t idx : target.row_indices) {
      BOHR_EXPECTS(idx < src_rows.size());
      tagged.emplace_back(idx, target.dst);
    }
  }
  if (tagged.empty()) return;
  std::sort(tagged.begin(), tagged.end());
  for (std::size_t k = 1; k < tagged.size(); ++k) {
    BOHR_EXPECTS(tagged[k].first != tagged[k - 1].first);
  }
  version_ = fresh_version();

  // Each destination appends its rows in descending source-index order,
  // then the source keeps the rest in order, gathered in one pass:
  // O(rows), where erasing each row was O(rows x moved).
  std::vector<std::vector<std::size_t>> moved(site_count());
  for (auto it = tagged.rbegin(); it != tagged.rend(); ++it) {
    moved[it->second].push_back(it->first);
  }
  std::vector<std::size_t> offsets(site_count());
  for (std::size_t dst = 0; dst < site_count(); ++dst) {
    offsets[dst] = bundle_.site_rows[dst].size();
    bundle_.site_rows[dst].append_rows(src_rows, moved[dst]);
  }
  std::vector<std::size_t> kept;
  kept.reserve(src_rows.size() - tagged.size());
  auto next_moved = tagged.begin();
  for (std::size_t r = 0; r < src_rows.size(); ++r) {
    if (next_moved != tagged.end() && next_moved->first == r) {
      ++next_moved;
    } else {
      kept.push_back(r);
    }
  }
  olap::RowTable survivors(bundle_.cube_spec.schema);
  survivors.append_rows(src_rows, kept);
  src_rows = std::move(survivors);

  if (has_cubes()) {
    for (std::size_t dst = 0; dst < site_count(); ++dst) {
      if (moved[dst].empty()) continue;
      cubes_[dst].add_rows(bundle_.site_rows[dst], offsets[dst],
                           bundle_.site_rows[dst].size());
    }
    // Cube cells are additive but not subtractive; rebuild the source.
    rebuild_cubes_at(src);
  }
}

void DatasetState::append_rows(std::size_t site, const olap::RowTable& rows) {
  BOHR_EXPECTS(site < site_count());
  if (rows.empty()) return;
  version_ = fresh_version();
  olap::RowTable& site_rows = bundle_.site_rows[site];
  const std::size_t offset = site_rows.size();
  site_rows.append_range(rows, 0, rows.size());
  if (has_cubes()) {
    cubes_[site].add_rows(site_rows, offset, site_rows.size());
  }
}

void DatasetState::restore_sites(std::vector<olap::RowTable> site_rows) {
  BOHR_EXPECTS(site_rows.size() == site_count());
  for (const olap::RowTable& rows : site_rows) {
    BOHR_EXPECTS(fits(rows, bundle_.cube_spec.schema));
  }
  version_ = fresh_version();
  bundle_.site_rows = std::move(site_rows);
  if (has_cubes()) rebuild_all_cubes();
}

void DatasetState::rebuild_all_cubes() {
  // Each site's cubes are one job (DESIGN §10): a body writes only its
  // own DatasetCubes, whose loops then run inline, so every cube is
  // folded in row order by the same code at every thread count.
  parallel_for(site_count(), [&](std::size_t s) { rebuild_cubes_at(s); });
}

void DatasetState::rebuild_cubes_at(std::size_t site) {
  olap::DatasetCubes fresh(builder_);
  for (const auto& qt : bundle_.query_types) {
    fresh.register_query_type(qt.dim_positions);
  }
  const olap::RowTable& rows = bundle_.site_rows[site];
  fresh.add_rows(rows, 0, rows.size());
  cubes_[site] = std::move(fresh);
}

}  // namespace bohr::core

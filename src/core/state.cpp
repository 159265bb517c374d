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

/// engine_key of `full` projected onto `positions`, without the copy.
std::uint64_t projected_key(const olap::CellCoords& full,
                            const std::vector<std::size_t>& positions) {
  std::uint64_t h = kEngineKeySeed;
  for (const std::size_t p : positions) h = hash_combine(h, full[p]);
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
  if (with_cubes) {
    cubes_.reserve(site_count());
    for (std::size_t s = 0; s < site_count(); ++s) {
      cubes_.emplace_back(builder_);
    }
    for (const auto& qt : bundle_.query_types) {
      // Registration is idempotent per attribute subset; every site must
      // register the same subsets in the same order so ids agree.
      olap::QueryTypeId id = 0;
      for (std::size_t s = 0; s < site_count(); ++s) {
        id = cubes_[s].register_query_type(qt.dim_positions);
      }
      spec_to_cube_type_.push_back(id);
    }
    // Each site's ingest is one job (DESIGN §10): a body writes only its
    // own DatasetCubes, whose loops then run inline, so every cube is
    // folded in row order by the same code at every thread count.
    parallel_for(site_count(), [&](std::size_t s) {
      cubes_[s].add_rows(bundle_.site_rows[s]);
    });
  } else {
    // Without cubes the spec->type mapping is positional.
    for (std::size_t t = 0; t < bundle_.query_types.size(); ++t) {
      spec_to_cube_type_.push_back(t);
    }
  }
}

const std::vector<olap::Row>& DatasetState::rows_at(std::size_t site) const {
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
  const std::vector<olap::Row>& rows = rows_at(site);
  const auto& specs = bundle_.query_types;
  std::vector<std::uint64_t> keys(rows.size() * specs.size());
  parallel_for(rows.size(), [&](std::size_t r) {
    const olap::CellCoords full = builder_.coords_for(rows[r]);
    for (std::size_t t = 0; t < specs.size(); ++t) {
      keys[r * specs.size() + t] = projected_key(full, specs[t].dim_positions);
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
  const auto& positions = bundle_.query_types[t].dim_positions;
  engine::RecordStream out;
  out.reserve(rows_at(site).size());
  const auto threshold = static_cast<std::uint64_t>(
      selectivity * 18446744073709551615.0);  // 2^64 - 1
  for (const olap::Row& row : rows_at(site)) {
    const std::uint64_t key =
        projected_key(builder_.coords_for(row), positions);
    if (selectivity < 1.0 && mix64(key ^ query_salt) > threshold) continue;
    out.push_back(engine::KeyValue{key, builder_.measure_for(row)});
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

  // Take the moved rows in descending source-index order (each
  // destination appends them in that order), then close the gaps in one
  // stable pass: O(rows), where erasing each row was O(rows x moved).
  std::vector<std::vector<olap::Row>> moved(site_count());
  for (auto it = tagged.rbegin(); it != tagged.rend(); ++it) {
    moved[it->second].push_back(std::move(src_rows[it->first]));
  }
  std::size_t kept = 0;
  auto next_moved = tagged.begin();
  for (std::size_t r = 0; r < src_rows.size(); ++r) {
    if (next_moved != tagged.end() && next_moved->first == r) {
      ++next_moved;
      continue;
    }
    if (kept != r) src_rows[kept] = std::move(src_rows[r]);
    ++kept;
  }
  src_rows.erase(src_rows.begin() + static_cast<std::ptrdiff_t>(kept),
                 src_rows.end());

  for (std::size_t dst = 0; dst < site_count(); ++dst) {
    if (moved[dst].empty()) continue;
    auto& dst_rows = bundle_.site_rows[dst];
    const std::size_t added = moved[dst].size();
    for (auto& row : moved[dst]) dst_rows.push_back(std::move(row));
    if (has_cubes()) {
      cubes_[dst].add_rows(std::span<const olap::Row>(
          dst_rows.data() + (dst_rows.size() - added), added));
    }
  }
  if (has_cubes()) {
    // Cube cells are additive but not subtractive; rebuild the source.
    rebuild_cubes_at(src);
  }
}

void DatasetState::append_rows(std::size_t site,
                               std::vector<olap::Row> rows) {
  BOHR_EXPECTS(site < site_count());
  if (rows.empty()) return;
  version_ = fresh_version();
  auto& site_rows = bundle_.site_rows[site];
  const std::size_t offset = site_rows.size();
  for (auto& row : rows) site_rows.push_back(std::move(row));
  if (has_cubes()) {
    cubes_[site].add_rows(std::span<const olap::Row>(
        site_rows.data() + offset, site_rows.size() - offset));
  }
}

void DatasetState::restore_sites(std::vector<std::vector<olap::Row>> site_rows,
                                 std::vector<olap::OlapCube> base_cubes) {
  BOHR_EXPECTS(site_rows.size() == site_count());
  version_ = fresh_version();
  bundle_.site_rows = std::move(site_rows);
  if (has_cubes()) {
    BOHR_EXPECTS(base_cubes.size() == site_count());
    for (std::size_t s = 0; s < site_count(); ++s) {
      cubes_[s].restore_base(std::move(base_cubes[s]));
    }
  } else {
    BOHR_EXPECTS(base_cubes.empty());
  }
}

void DatasetState::rebuild_cubes_at(std::size_t site) {
  olap::DatasetCubes fresh(builder_);
  for (const auto& qt : bundle_.query_types) {
    fresh.register_query_type(qt.dim_positions);
  }
  fresh.add_rows(bundle_.site_rows[site]);
  cubes_[site] = std::move(fresh);
}

}  // namespace bohr::core

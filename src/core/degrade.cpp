#include "core/degrade.h"

#include <algorithm>
#include <string_view>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"
#include "olap/cube_algebra.h"

namespace bohr::core {

namespace {

constexpr std::string_view kMagic = "BDGR";
constexpr std::uint32_t kVersion = 1;
/// Encoded size of one DegradedAnswer: every field is fixed-width.
constexpr std::size_t kAnswerBytes = 8 + 2 * 4 + 2 * 1 + 5 * 8 + 7 * 4 + 8;

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

void require(bool ok, const char* field, const char* what) {
  if (!ok) {
    throw ContractViolation(std::string("DegradeOptions.") + field + " " +
                            what);
  }
}

}  // namespace

const char* to_string(AnswerMode mode) {
  switch (mode) {
    case AnswerMode::kExact:
      return "exact";
    case AnswerMode::kPartial:
      return "partial";
    case AnswerMode::kSubstituted:
      return "substituted";
    case AnswerMode::kPrior:
      return "prior";
  }
  return "unknown";
}

void DegradeOptions::validate() const {
  deadline.validate();
  require(min_similarity >= 0.0 && min_similarity <= 1.0, "min_similarity",
          "must be in [0, 1]");
  require(error_floor >= 0.0 && error_floor <= 1.0, "error_floor",
          "must be in [0, 1]");
  require(partial_skew_weight >= 0.0 && partial_skew_weight <= 1.0,
          "partial_skew_weight", "must be in [0, 1]");
  require(sub_floor >= 0.0 && sub_floor <= 1.0, "sub_floor",
          "must be in [0, 1]");
  require(sub_overlap_coeff >= 0.0, "sub_overlap_coeff", "must be >= 0");
  require(sub_containment_coeff >= 0.0, "sub_containment_coeff",
          "must be >= 0");
}

void DegradedReport::add(const DegradedAnswer& answer) {
  answers.push_back(answer);
  ++queries_total;
  switch (answer.mode) {
    case AnswerMode::kExact:
      ++exact;
      break;
    case AnswerMode::kPartial:
      ++partial;
      break;
    case AnswerMode::kSubstituted:
      ++substituted;
      break;
    case AnswerMode::kPrior:
      ++prior;
      break;
  }
  if (answer.escalated_phase != DegradedAnswer::kNoEscalation) {
    ++escalations;
  }
  retries += answer.retries;
}

std::string DegradedReport::serialize() const {
  ByteWriter w;
  w.raw(kMagic);
  w.u32(kVersion);
  w.u64(queries_total);
  w.u64(exact);
  w.u64(partial);
  w.u64(substituted);
  w.u64(prior);
  w.u64(escalations);
  w.u64(retries);
  w.u64(answers.size());
  for (const DegradedAnswer& a : answers) {
    w.u64(a.round);
    w.u32(a.dataset);
    w.u32(a.spec);
    w.u8(static_cast<std::uint8_t>(a.mode));
    w.u8(a.escalated_phase);
    w.f64(a.value);
    w.f64(a.exact_value);
    w.f64(a.error_estimate);
    w.f64(a.coverage);
    w.f64(a.similarity);
    w.u32(a.substitute_dataset);
    w.u32(a.sites_usable);
    w.u32(a.sites_lost);
    w.u32(a.partitions_exact);
    w.u32(a.partitions_substituted);
    w.u32(a.partitions_dropped);
    w.u32(a.retries);
    w.f64(a.qct_seconds);
  }
  return w.take();
}

DegradedReport DegradedReport::deserialize(std::string_view bytes) {
  ByteReader<ContractViolation> r(bytes, "degraded report image");
  r.magic(kMagic);
  if (r.u32() != kVersion) r.fail("unsupported version");
  DegradedReport report;
  report.queries_total = r.u64();
  report.exact = r.u64();
  report.partial = r.u64();
  report.substituted = r.u64();
  report.prior = r.u64();
  report.escalations = r.u64();
  report.retries = r.u64();
  report.answers.resize(r.count<std::uint64_t>(kAnswerBytes));
  for (DegradedAnswer& a : report.answers) {
    a.round = r.u64();
    a.dataset = r.u32();
    a.spec = r.u32();
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(AnswerMode::kPrior)) {
      r.fail("unknown answer mode");
    }
    a.mode = static_cast<AnswerMode>(mode);
    a.escalated_phase = r.u8();
    a.value = r.f64();
    a.exact_value = r.f64();
    a.error_estimate = r.f64();
    a.coverage = r.f64();
    a.similarity = r.f64();
    a.substitute_dataset = r.u32();
    a.sites_usable = r.u32();
    a.sites_lost = r.u32();
    a.partitions_exact = r.u32();
    a.partitions_substituted = r.u32();
    a.partitions_dropped = r.u32();
    a.retries = r.u32();
    a.qct_seconds = r.f64();
  }
  r.expect_end();
  return report;
}

std::uint32_t DegradedReport::digest() const {
  const std::string bytes = serialize();
  return crc32(bytes.data(), bytes.size());
}

DegradationService::DegradationService(
    const std::vector<DatasetState>& datasets,
    const std::vector<DatasetSimilarity>& similarity,
    const DegradeOptions& options)
    : datasets_(datasets), similarity_(similarity), options_(options) {
  options_.validate();
  info_.resize(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetState& d = datasets_[a];
    DatasetInfo& info = info_[a];
    info.has_cubes = d.has_cubes();
    if (a == 0) {
      site_count_ = d.site_count();
    }
    const std::size_t spec_count = d.bundle().query_types.size();
    info.specs.resize(spec_count);
    for (std::size_t t = 0; t < spec_count; ++t) {
      SpecStats& st = info.specs[t];
      st.qt = d.has_cubes() ? d.cube_query_type(t) : 0;
      st.site_value.assign(d.site_count(), 0.0);
      st.site_records.assign(d.site_count(), 0);
      for (std::size_t s = 0; s < d.site_count(); ++s) {
        if (d.has_cubes()) {
          // Read the base cube, not the spec's dimension cube: totals
          // are projection-invariant up to rounding, and one cube gives
          // every spec of the dataset the same per-site total.
          const olap::CubeTotals totals =
              olap::cube_totals(d.cubes_at(s).base_cube());
          st.site_value[s] = totals.sum;
          st.site_records[s] = totals.records;
        } else {
          // No cubes (plain-Iridium strategies): totals straight from
          // the raw rows; substitution stays unavailable.
          const olap::CubeBuilder builder(d.bundle().cube_spec);
          double sum = 0.0;
          const auto& rows = d.rows_at(s);
          for (const olap::Row& row : rows) sum += builder.measure_for(row);
          st.site_value[s] = sum;
          st.site_records[s] = rows.size();
        }
        st.total_value += st.site_value[s];
        st.total_records += st.site_records[s];
      }
    }
    if (d.has_cubes()) {
      // Prepare-time sketch: the global dimension cube per query type,
      // the reference a substitution candidate is scored against.
      const std::size_t type_count = d.cubes_at(0).query_type_count();
      info.type_dims.resize(type_count);
      for (std::size_t qt = 0; qt < type_count; ++qt) {
        info.type_dims[qt] = d.cubes_at(0).query_type_dims(qt);
      }
      // The per-site base cubes merged in site order, projected onto
      // each query type's dims.
      olap::OlapCube merged_base = d.cubes_at(0).base_cube();
      for (std::size_t s = 1; s < d.site_count(); ++s) {
        merged_base.merge(d.cubes_at(s).base_cube());
      }
      info.global_cubes.reserve(type_count);
      for (std::size_t qt = 0; qt < type_count; ++qt) {
        info.global_cubes.push_back(merged_base.project(info.type_dims[qt]));
      }
    }
  }
}

DegradedAnswer DegradationService::answer(
    std::size_t a, std::size_t t, const std::vector<bool>& site_ok) const {
  const DatasetInfo& info = info_[a];
  const SpecStats& st = info.specs[t];
  DegradedAnswer ans;
  ans.dataset = static_cast<std::uint32_t>(a);
  ans.spec = static_cast<std::uint32_t>(t);
  ans.exact_value = st.total_value;

  double usable_value = 0.0;
  std::uint64_t usable_records = 0;
  std::vector<std::size_t> lost_homes;
  std::vector<std::size_t> usable_homes;
  for (std::size_t s = 0; s < st.site_records.size(); ++s) {
    if (st.site_records[s] == 0) continue;  // not a home site
    const bool ok = s < site_ok.size() && site_ok[s];
    if (ok) {
      usable_value += st.site_value[s];
      usable_records += st.site_records[s];
      usable_homes.push_back(s);
    } else {
      lost_homes.push_back(s);
    }
  }
  ans.sites_usable = static_cast<std::uint32_t>(usable_homes.size());
  ans.sites_lost = static_cast<std::uint32_t>(lost_homes.size());
  ans.coverage = st.total_records > 0
                     ? static_cast<double>(usable_records) /
                           static_cast<double>(st.total_records)
                     : 1.0;

  if (lost_homes.empty()) {
    ans.mode = AnswerMode::kExact;
    ans.value = st.total_value;
    ans.error_estimate = 0.0;
    return ans;
  }

  if (usable_records > 0) {
    // Partial: rescale the surviving mass by coverage; the error bound
    // widens with the lost fraction and with how dissimilar the lost
    // sites' data was to the survivors (prepare-time probe pairs).
    ans.mode = AnswerMode::kPartial;
    ans.value = usable_value / ans.coverage;
    double skew = 1.0;
    if (a < similarity_.size() && !similarity_[a].pair.empty()) {
      const auto& pair = similarity_[a].pair;
      double total = 0.0;
      for (const std::size_t s : lost_homes) {
        double best = 0.0;
        for (const std::size_t j : usable_homes) {
          if (s < pair.size() && j < pair[s].size()) {
            best = std::max(best, clamp01(pair[s][j]));
          }
        }
        total += 1.0 - best;
      }
      skew = total / static_cast<double>(lost_homes.size());
    }
    const double w = options_.partial_skew_weight;
    ans.error_estimate = clamp01(options_.error_floor +
                                 (1.0 - ans.coverage) *
                                     ((1.0 - w) + w * skew));
    return ans;
  }

  substitute(a, t, site_ok, ans);
  return ans;
}

void DegradationService::substitute(std::size_t a, std::size_t t,
                                    const std::vector<bool>& site_ok,
                                    DegradedAnswer& out) const {
  const DatasetInfo& info = info_[a];
  const SpecStats& st = info.specs[t];

  double best_overlap = -1.0;
  double best_containment = -1.0;
  std::size_t best_dataset = 0;
  double best_value = 0.0;

  if (info.has_cubes && st.qt < info.global_cubes.size()) {
    const olap::OlapCube& reference = info.global_cubes[st.qt];
    const std::vector<std::size_t>& ref_dims = info.type_dims[st.qt];
    for (std::size_t b = 0; b < datasets_.size(); ++b) {
      if (b == a || !info_[b].has_cubes) continue;
      const DatasetState& db = datasets_[b];
      // The candidate must maintain a dimension cube covering the
      // reference dims — substitution only reads what sites already
      // keep for their own queries.
      bool covered = false;
      for (const std::vector<std::size_t>& cand_dims : info_[b].type_dims) {
        if (olap::covers_group_by(cand_dims, ref_dims)) {
          covered = true;
          break;
        }
      }
      if (!covered) continue;
      // Merge the candidate's surviving base cubes only, in site order:
      // the substitution must be computable without the dead sites, and
      // the merged base projects onto whichever dims the reference has.
      olap::OlapCube merged;
      bool seeded = false;
      for (std::size_t s = 0; s < db.site_count(); ++s) {
        if (s >= site_ok.size() || !site_ok[s]) continue;
        const olap::OlapCube& cube = db.cubes_at(s).base_cube();
        if (!seeded) {
          merged = cube;
          seeded = true;
        } else {
          merged.merge(cube);
        }
      }
      if (!seeded || merged.total_records() == 0) continue;
      bool projectable = true;
      for (const std::size_t g : ref_dims) {
        if (g >= merged.dimension_count()) projectable = false;
      }
      if (!projectable) continue;
      const olap::OlapCube projected = merged.project(ref_dims);
      const olap::CubeRelation rel = olap::relate(reference, projected);
      if (rel.overlap < options_.min_similarity) continue;
      const bool better =
          rel.overlap > best_overlap ||
          (rel.overlap == best_overlap &&
           (rel.containment_ab > best_containment ||
            (rel.containment_ab == best_containment &&
             b < best_dataset)));
      if (!better) continue;
      const olap::CubeTotals totals = olap::cube_totals(projected);
      best_overlap = rel.overlap;
      best_containment = rel.containment_ab;
      best_dataset = b;
      best_value = totals.sum *
                   (static_cast<double>(st.total_records) /
                    static_cast<double>(totals.records));
    }
  }

  if (best_overlap >= 0.0) {
    out.mode = AnswerMode::kSubstituted;
    out.value = best_value;
    out.similarity = best_overlap;
    out.substitute_dataset = static_cast<std::uint32_t>(best_dataset);
    out.error_estimate = clamp01(
        options_.sub_floor +
        options_.sub_overlap_coeff * (1.0 - best_overlap) +
        options_.sub_containment_coeff * (1.0 - best_containment));
    return;
  }

  // Prior: catalog record count x mean measure over every surviving
  // site of every other dataset. The weakest rung; error estimate 1.
  out.mode = AnswerMode::kPrior;
  double sum_value = 0.0;
  std::uint64_t sum_records = 0;
  for (std::size_t b = 0; b < info_.size(); ++b) {
    if (b == a || info_[b].specs.empty()) continue;
    const SpecStats& sb = info_[b].specs[0];
    for (std::size_t s = 0; s < sb.site_records.size(); ++s) {
      if (s < site_ok.size() && site_ok[s]) {
        sum_value += sb.site_value[s];
        sum_records += sb.site_records[s];
      }
    }
  }
  const double mean =
      sum_records > 0 ? sum_value / static_cast<double>(sum_records) : 0.0;
  out.value = static_cast<double>(st.total_records) * mean;
  out.similarity = 0.0;
  out.error_estimate = 1.0;
}

}  // namespace bohr::core

// Similarity substitution service: the degradation ladder.
//
// When a dataset's home sites are dead (SiteHealthMonitor), dark
// (FaultPlan outage) or too slow to answer inside the query's deadline
// budget, the controller does not fail the query — it walks a ladder of
// progressively weaker answers, each tagged with an explicit error
// estimate:
//
//   Exact        every home site reachable; the real answer, error 0.
//   Partial      some home sites reachable; rescale the surviving
//                aggregate by record coverage. Error grows with the
//                lost mass and with how DISsimilar the lost sites were
//                to the survivors (probe similarities from prepare).
//   Substituted  no home site reachable; pick the most similar
//                surviving cube (cube_algebra overlap, dimension
//                coverage containing the query's group-by) from another
//                dataset and rescale its aggregate by record counts.
//   Prior        nothing similar survives; metadata-only estimate
//                (catalog record count x surviving mean measure),
//                error estimate 1.
//
// Degraded answers use only surviving sites' live cubes plus scalar
// prepare-time metadata (record counts, probe similarities) — never the
// lost data itself. The answer plane is the query's grand aggregate
// (sum over its dimension cube), the scalar the accuracy bench scores.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/deadline.h"
#include "core/similarity_service.h"
#include "core/state.h"

namespace bohr::core {

/// Rung of the degradation ladder an answer came from.
enum class AnswerMode : std::uint8_t {
  kExact = 0,
  kPartial = 1,
  kSubstituted = 2,
  kPrior = 3,
};

const char* to_string(AnswerMode mode);

struct DegradeOptions {
  /// Per-query QCT budget driving retries and partial-reduce close-out.
  DeadlineOptions deadline;
  /// Minimum cube overlap for a substitution candidate; below it the
  /// ladder falls through to the prior rung.
  double min_similarity = 0.05;
  /// Error floor on any non-exact answer (nothing degraded is certain).
  double error_floor = 0.02;
  /// Partial-mode error: floor + (1 - coverage) *
  /// ((1 - w) + w * skew), where skew = 1 - best probe similarity of
  /// each lost site against the survivors. w weights how much the
  /// estimate trusts the probe similarities.
  double partial_skew_weight = 0.75;
  /// Substituted-mode error: min(1, sub_floor +
  /// overlap_coeff * (1 - overlap) + containment_coeff *
  /// (1 - containment)).
  double sub_floor = 0.10;
  double sub_overlap_coeff = 0.90;
  double sub_containment_coeff = 0.25;

  /// Throws ContractViolation naming the offending field.
  void validate() const;
};

/// One query's degraded (or exact) answer.
struct DegradedAnswer {
  std::uint64_t round = 0;
  std::uint32_t dataset = 0;
  std::uint32_t spec = 0;  // query-type spec index within the dataset
  AnswerMode mode = AnswerMode::kExact;
  /// The reported aggregate and the ground truth it approximates.
  double value = 0.0;
  double exact_value = 0.0;
  /// Reported relative-error bound in [0, 1]; 0 iff mode == kExact.
  double error_estimate = 0.0;
  /// Record-weighted fraction of the dataset's mass that was reachable.
  double coverage = 1.0;
  /// Cube overlap backing a substitution (0 when not substituted).
  double similarity = 0.0;
  static constexpr std::uint32_t kNoSubstitute = 0xFFFFFFFFu;
  std::uint32_t substitute_dataset = kNoSubstitute;
  std::uint32_t sites_usable = 0;
  std::uint32_t sites_lost = 0;
  /// Reduce-partition bookkeeping from the engine's partial close-out.
  std::uint32_t partitions_exact = 0;
  std::uint32_t partitions_substituted = 0;
  std::uint32_t partitions_dropped = 0;
  /// Deadline-budget outcome for this query.
  static constexpr std::uint8_t kNoEscalation = 0xFF;
  std::uint8_t escalated_phase = kNoEscalation;  // QueryPhase or none
  std::uint32_t retries = 0;
  double qct_seconds = 0.0;
};

/// Every degraded answer of a run plus ladder counters; serialization
/// is byte-exact (little-endian, fixed field order) so same-seed runs
/// and checkpoint round-trips can be compared by digest.
struct DegradedReport {
  std::vector<DegradedAnswer> answers;
  std::uint64_t queries_total = 0;
  std::uint64_t exact = 0;
  std::uint64_t partial = 0;
  std::uint64_t substituted = 0;
  std::uint64_t prior = 0;
  std::uint64_t escalations = 0;
  std::uint64_t retries = 0;

  void add(const DegradedAnswer& answer);

  std::string serialize() const;
  /// Throws ContractViolation on a malformed image.
  static DegradedReport deserialize(std::string_view bytes);
  std::uint32_t digest() const;
};

/// Prepared once per run (after Controller::prepare), then queried per
/// round with the current usable-site mask. Borrows datasets and
/// similarity; both must outlive the service and stay unmutated (churn
/// rounds move no rows).
class DegradationService {
 public:
  DegradationService(const std::vector<DatasetState>& datasets,
                     const std::vector<DatasetSimilarity>& similarity,
                     const DegradeOptions& options);

  std::size_t site_count() const { return site_count_; }
  const DegradeOptions& options() const { return options_; }

  /// Answer for dataset `a`, query-type spec `t`, given which sites are
  /// usable. Pure and deterministic; fills the value/error/coverage
  /// fields (round, partitions and deadline fields are the caller's).
  DegradedAnswer answer(std::size_t a, std::size_t t,
                        const std::vector<bool>& site_ok) const;

 private:
  struct SpecStats {
    olap::QueryTypeId qt = 0;
  };
  struct DatasetInfo {
    bool has_cubes = false;
    /// Per-site totals, shared by every spec of the dataset.
    std::vector<double> site_value;          // per-site aggregate sum
    std::vector<std::uint64_t> site_records; // per-site record count
    double total_value = 0.0;
    std::uint64_t total_records = 0;
    std::vector<SpecStats> specs;              // per query-type spec
    std::vector<std::vector<std::size_t>> type_dims;  // per QueryTypeId
    /// Prepare-time sketch: the all-sites dimension cube per query
    /// type, the reference a substitution candidate is scored against.
    std::vector<olap::OlapCube> global_cubes;  // per QueryTypeId
  };

  /// Best substitution candidate for (a, spec t); fills mode, value,
  /// similarity, substitute_dataset and error, or falls through to the
  /// prior rung.
  void substitute(std::size_t a, std::size_t t,
                  const std::vector<bool>& site_ok,
                  DegradedAnswer& out) const;

  const std::vector<DatasetState>& datasets_;
  const std::vector<DatasetSimilarity>& similarity_;
  DegradeOptions options_;
  std::size_t site_count_ = 0;
  std::vector<DatasetInfo> info_;
};

}  // namespace bohr::core

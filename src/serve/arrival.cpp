#include "serve/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"

namespace bohr::serve {
namespace {

/// Bounded Pareto on [1, work_max] via inverse CDF: heavy-tailed job
/// sizes with a hard cap so one sample cannot dominate a whole run.
double bounded_pareto(Rng& rng, double alpha, double x_max) {
  if (x_max <= 1.0) return 1.0;
  const double u = rng.uniform();
  const double tail = 1.0 - std::pow(1.0 / x_max, alpha);
  return 1.0 / std::pow(1.0 - u * tail, 1.0 / alpha);
}

}  // namespace

std::vector<QueryArrival> generate_arrivals(
    const ArrivalConfig& config, std::size_t n_datasets,
    const std::vector<std::size_t>& types_per_dataset) {
  BOHR_EXPECTS(config.tenants > 0);
  BOHR_EXPECTS(config.arrival_rate_qps > 0.0);
  BOHR_EXPECTS(config.duration_seconds > 0.0);
  BOHR_EXPECTS(config.expected_arrivals() <= kMaxExpectedArrivals);
  BOHR_EXPECTS(n_datasets > 0);
  BOHR_EXPECTS(types_per_dataset.size() == n_datasets);

  const ZipfSampler dataset_zipf(n_datasets, config.dataset_skew);
  std::vector<ZipfSampler> type_zipf;
  type_zipf.reserve(n_datasets);
  for (const std::size_t n_types : types_per_dataset) {
    BOHR_EXPECTS(n_types > 0);
    type_zipf.emplace_back(n_types, config.type_skew);
  }
  std::vector<QueryArrival> all;
  for (std::size_t tenant = 0; tenant < config.tenants; ++tenant) {
    // One independent stream per tenant: interleaving tenants must not
    // perturb each other's draws.
    Rng rng(hash_combine(config.seed, 0xA221 + tenant));
    double now = 0.0;
    while (true) {
      now += rng.exponential(config.arrival_rate_qps);
      if (now >= config.duration_seconds) break;
      QueryArrival q;
      q.time = now;
      q.tenant = tenant;
      // Tenants rotate the popularity ranking so the hot dataset
      // differs per tenant while each tenant stays Zipf-skewed.
      q.dataset = (dataset_zipf.sample(rng) + tenant) % n_datasets;
      q.type_spec = type_zipf[q.dataset].sample(rng);
      q.work_scale = bounded_pareto(rng, config.work_alpha, config.work_max);
      all.push_back(q);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const QueryArrival& a, const QueryArrival& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.tenant < b.tenant;
            });
  for (std::size_t i = 0; i < all.size(); ++i) all[i].seq = i;
  return all;
}

}  // namespace bohr::serve

#include "core/placement.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/phase_timer.h"
#include "common/timer.h"
#include "lp/problem.h"

namespace bohr::core {

namespace {

std::vector<std::vector<std::vector<double>>> zero_moves(
    const PlacementProblem& problem) {
  const std::size_t n = problem.topology.site_count();
  return std::vector<std::vector<std::vector<double>>>(
      problem.datasets.size(),
      std::vector<std::vector<double>>(n, std::vector<double>(n, 0.0)));
}

void validate_problem(const PlacementProblem& problem) {
  const std::size_t n = problem.topology.site_count();
  BOHR_EXPECTS(n > 1);
  BOHR_EXPECTS(problem.lag_seconds > 0.0);
  for (const auto& d : problem.datasets) {
    BOHR_EXPECTS(d.input_bytes.size() == n);
    BOHR_EXPECTS(d.self_similarity.size() == n);
    BOHR_EXPECTS(d.reduction_ratio >= 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      BOHR_EXPECTS(d.input_bytes[i] >= 0.0);
      BOHR_EXPECTS(d.self_similarity[i] >= 0.0 &&
                   d.self_similarity[i] <= 1.0);
    }
  }
}

/// Per-dataset per-site shuffle coefficient for resident data:
/// rho = R (1 - S_i).
double rho_resident(const PlacementProblem& problem, std::size_t a,
                    std::size_t i) {
  return problem.datasets[a].reduction_ratio *
         (1.0 - problem.datasets[a].self_similarity[i]);
}

/// Coefficient for data arriving from -> to (probe-informed when
/// available; falls back to the destination's self-similarity).
double rho_incoming(const PlacementProblem& problem, std::size_t a,
                    std::size_t from, std::size_t to) {
  const auto& d = problem.datasets[a];
  const double mergability = d.pair_similarity.empty()
                                 ? d.self_similarity[to]
                                 : d.pair_similarity[from][to];
  return d.reduction_ratio * (1.0 - mergability);
}

}  // namespace

double PlacementDecision::moved_bytes_total() const {
  double total = 0.0;
  for (const auto& per_dataset : move_bytes) {
    for (const auto& row : per_dataset) {
      for (const double x : row) total += x;
    }
  }
  return total;
}

std::vector<double> predicted_shuffle_bytes(
    const DatasetPlacementInput& dataset,
    const std::vector<std::vector<double>>& move_bytes) {
  const std::size_t n = dataset.input_bytes.size();
  BOHR_EXPECTS(move_bytes.size() == n);
  const bool has_pair = !dataset.pair_similarity.empty();
  if (has_pair) BOHR_EXPECTS(dataset.pair_similarity.size() == n);
  std::vector<double> f(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double resident = dataset.input_bytes[i];
    double arriving_effective = 0.0;  // in-flow bytes weighted by (1 - S_ki)
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      resident -= move_bytes[i][j];
      const double mergability = has_pair ? dataset.pair_similarity[j][i]
                                          : dataset.self_similarity[i];
      arriving_effective += move_bytes[j][i] * (1.0 - mergability);
    }
    resident = std::max(resident, 0.0);
    f[i] = (resident * (1.0 - dataset.self_similarity[i]) +
            arriving_effective) *
           dataset.reduction_ratio;
  }
  return f;
}

double predicted_shuffle_seconds(const PlacementProblem& problem,
                                 const PlacementDecision& decision) {
  const std::size_t n = problem.topology.site_count();
  // F_i = sum_a f^a_i; the (3)-(4) terms.
  std::vector<double> f_total(n, 0.0);
  for (std::size_t a = 0; a < problem.datasets.size(); ++a) {
    const auto f = predicted_shuffle_bytes(problem.datasets[a],
                                           decision.move_bytes[a]);
    for (std::size_t i = 0; i < n; ++i) f_total[i] += f[i];
  }
  double all_sites = 0.0;
  for (const double fi : f_total) all_sites += fi;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double up = (1.0 - decision.reduce_fractions[i]) * f_total[i] /
                      problem.topology.uplink(i);
    const double down = decision.reduce_fractions[i] *
                        (all_sites - f_total[i]) /
                        problem.topology.downlink(i);
    t = std::max(t, std::max(up, down));
  }
  return t;
}

namespace {

/// Reusable structure of the r-step LP (task placement). Only the
/// up/down row coefficients depend on the f totals; per alternation
/// round they are re-coefficiented in place (update_constraint) instead
/// of rebuilding the problem, and the solve is warm-started from the
/// previous round's optimal basis.
struct TaskLp {
  lp::LpProblem p;
  lp::VarId t = 0;
  std::vector<lp::VarId> r;
  std::vector<std::size_t> up_row;
  std::vector<std::size_t> down_row;
  bool built = false;
};

struct TaskSolveStats {
  bool warm_started = false;
  std::size_t peak_bytes = 0;
};

TaskPlacementResult solve_task_placement_impl(
    const PlacementProblem& problem,
    const std::vector<std::vector<std::vector<double>>>& move_bytes,
    TaskLp* cache, const lp::Basis* warm_start, lp::Basis* basis_out,
    TaskSolveStats* stats) {
  validate_problem(problem);
  const std::size_t n = problem.topology.site_count();
  BOHR_EXPECTS(move_bytes.size() == problem.datasets.size());

  std::vector<double> f_total(n, 0.0);
  for (std::size_t a = 0; a < problem.datasets.size(); ++a) {
    const auto f = predicted_shuffle_bytes(problem.datasets[a], move_bytes[a]);
    for (std::size_t i = 0; i < n; ++i) f_total[i] += f[i];
  }
  double all_sites = 0.0;
  for (const double fi : f_total) all_sites += fi;

  TaskPlacementResult result;
  if (all_sites <= 0.0) {
    result.reduce_fractions.assign(n, 1.0 / static_cast<double>(n));
    result.optimal = true;
    if (basis_out != nullptr) basis_out->basic.clear();
    return result;
  }

  TaskLp local;
  TaskLp& tlp = cache != nullptr ? *cache : local;
  if (!tlp.built) {
    tlp.t = tlp.p.add_variable(1.0);
    tlp.r.resize(n);
    for (std::size_t i = 0; i < n; ++i) tlp.r[i] = tlp.p.add_variable(0.0);
    tlp.up_row.resize(n);
    tlp.down_row.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tlp.up_row[i] = tlp.p.add_constraint({}, lp::Relation::LessEq, 0.0);
      tlp.down_row[i] = tlp.p.add_constraint({}, lp::Relation::LessEq, 0.0);
    }
    std::vector<lp::Term> sum_r;
    for (std::size_t i = 0; i < n; ++i) sum_r.push_back({tlp.r[i], 1.0});
    tlp.p.add_constraint(std::move(sum_r), lp::Relation::Equal, 1.0);
    tlp.built = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double up_coeff = f_total[i] / problem.topology.uplink(i);
    // (1 - r_i) F_i / U_i <= t  <=>  -up*r_i - t <= -up.
    tlp.p.update_constraint(tlp.up_row[i],
                            {{tlp.r[i], -up_coeff}, {tlp.t, -1.0}}, -up_coeff);
    const double down_coeff =
        (all_sites - f_total[i]) / problem.topology.downlink(i);
    // r_i * G_i / D_i <= t.
    tlp.p.update_constraint(tlp.down_row[i],
                            {{tlp.r[i], down_coeff}, {tlp.t, -1.0}}, 0.0);
  }

  const lp::LpSolution sol = lp::solve(tlp.p, {}, warm_start);
  result.optimal = sol.optimal();
  result.iterations = sol.iterations;
  if (stats != nullptr) {
    stats->warm_started = sol.warm_started;
    stats->peak_bytes = sol.peak_bytes;
  }
  if (basis_out != nullptr) {
    *basis_out = result.optimal ? sol.basis : lp::Basis{};
  }
  if (!result.optimal) {
    result.reduce_fractions.assign(n, 1.0 / static_cast<double>(n));
    return result;
  }
  result.objective = sol.value(tlp.t);
  result.reduce_fractions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.reduce_fractions[i] = std::max(0.0, sol.value(tlp.r[i]));
  }
  // Normalize tiny numerical drift so the engine sees sum == 1.
  double total = 0.0;
  for (const double ri : result.reduce_fractions) total += ri;
  BOHR_CHECK(total > 0.0);
  for (auto& ri : result.reduce_fractions) ri /= total;
  return result;
}

}  // namespace

TaskPlacementResult solve_task_placement(
    const PlacementProblem& problem,
    const std::vector<std::vector<std::vector<double>>>& move_bytes) {
  return solve_task_placement_impl(problem, move_bytes, nullptr, nullptr,
                                   nullptr, nullptr);
}

namespace {

/// Tie-break score for the greedy: total upload seconds across sites.
/// With symmetric inputs many sites bind at the same t, so a single move
/// cannot lower t — but it can lower this aggregate, and enough such
/// moves break the plateau (mirrors Iridium's per-query evaluation).
double upload_load_score(const PlacementProblem& problem,
                         const PlacementDecision& decision) {
  const std::size_t n = problem.topology.site_count();
  double score = 0.0;
  for (std::size_t a = 0; a < problem.datasets.size(); ++a) {
    const auto f = predicted_shuffle_bytes(problem.datasets[a],
                                           decision.move_bytes[a]);
    for (std::size_t i = 0; i < n; ++i) {
      score += (1.0 - decision.reduce_fractions[i]) * f[i] /
               problem.topology.uplink(i);
    }
  }
  return score;
}

}  // namespace

PlacementDecision geode_placement(const PlacementProblem& problem) {
  validate_problem(problem);
  const std::size_t n = problem.topology.site_count();
  PlacementDecision decision;
  decision.move_bytes = zero_moves(problem);
  // f_i with no movement; reduce where most intermediate data lives.
  std::vector<double> f_total(n, 0.0);
  for (const auto& d : problem.datasets) {
    const auto f = predicted_shuffle_bytes(
        d, std::vector<std::vector<double>>(n, std::vector<double>(n, 0.0)));
    for (std::size_t i = 0; i < n; ++i) f_total[i] += f[i];
  }
  std::size_t hub = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (f_total[i] > f_total[hub]) hub = i;
  }
  decision.reduce_fractions.assign(n, 0.0);
  decision.reduce_fractions[hub] = 1.0;
  decision.predicted_shuffle_seconds =
      predicted_shuffle_seconds(problem, decision);
  return decision;
}

PlacementDecision centralized_placement(const PlacementProblem& problem) {
  validate_problem(problem);
  const std::size_t n = problem.topology.site_count();
  // Hub: the site that can ingest fastest.
  net::SiteId hub = 0;
  for (net::SiteId i = 1; i < n; ++i) {
    if (problem.topology.downlink(i) > problem.topology.downlink(hub)) {
      hub = i;
    }
  }
  PlacementDecision decision;
  decision.move_bytes = zero_moves(problem);
  for (std::size_t a = 0; a < problem.datasets.size(); ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i != hub) {
        decision.move_bytes[a][i][hub] = problem.datasets[a].input_bytes[i];
      }
    }
  }
  decision.reduce_fractions.assign(n, 0.0);
  decision.reduce_fractions[hub] = 1.0;
  decision.predicted_shuffle_seconds =
      predicted_shuffle_seconds(problem, decision);
  return decision;
}

PlacementDecision iridium_placement(const PlacementProblem& problem) {
  validate_problem(problem);
  const std::size_t n = problem.topology.site_count();
  PlacementDecision decision;
  decision.move_bytes = zero_moves(problem);

  TaskPlacementResult task = solve_task_placement(problem, decision.move_bytes);
  decision.reduce_fractions = task.reduce_fractions;
  double current_t = predicted_shuffle_seconds(problem, decision);
  double current_score = upload_load_score(problem, decision);

  // Movement budgets from constraints (5)-(6).
  std::vector<double> out_budget(n);
  std::vector<double> in_budget(n);
  for (std::size_t i = 0; i < n; ++i) {
    out_budget[i] = problem.lag_seconds * problem.topology.uplink(i);
    in_budget[i] = problem.lag_seconds * problem.topology.downlink(i);
  }

  // Rank datasets by Iridium's "high value" heuristic: datasets accessed
  // by more queries whose movement promises larger intermediate savings.
  std::vector<std::size_t> order(problem.datasets.size());
  for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto value = [&](std::size_t d) {
      const auto& ds = problem.datasets[d];
      double max_i = 0.0;
      for (const double bytes : ds.input_bytes) max_i = std::max(max_i, bytes);
      return static_cast<double>(ds.query_count) * max_i * ds.reduction_ratio;
    };
    return value(a) > value(b);
  });

  for (const std::size_t a : order) {
    const auto& ds = problem.datasets[a];
    // Move chunks of this dataset out of the current bottleneck site as
    // long as predicted shuffle time keeps improving.
    for (int step = 0; step < 64; ++step) {
      // Bottleneck: the site whose upload term binds.
      std::vector<double> f_total(n, 0.0);
      for (std::size_t d = 0; d < problem.datasets.size(); ++d) {
        const auto f = predicted_shuffle_bytes(problem.datasets[d],
                                               decision.move_bytes[d]);
        for (std::size_t i = 0; i < n; ++i) f_total[i] += f[i];
      }
      std::size_t bottleneck = 0;
      double worst = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double up = (1.0 - decision.reduce_fractions[i]) * f_total[i] /
                          problem.topology.uplink(i);
        if (up > worst) {
          worst = up;
          bottleneck = i;
        }
      }
      double remaining = ds.input_bytes[bottleneck];
      for (std::size_t j = 0; j < n; ++j) {
        remaining -= decision.move_bytes[a][bottleneck][j];
      }
      const double chunk = 0.1 * ds.input_bytes[bottleneck];
      if (chunk <= 0.0 || remaining < chunk) break;

      // Try every destination; keep the best improvement. Accept a move
      // that holds t but lowers the aggregate upload load (plateau
      // crossing). The per-destination trial solves are independent
      // (lp::solve is pure), so they run concurrently; the winner is then
      // picked by replaying the historical j-ascending comparison.
      struct Trial {
        bool valid = false;
        double t = 0.0;
        double score = 0.0;
        PlacementDecision decision;
      };
      std::vector<Trial> trials(n);
      {
        ScopedPhase phase("lp.iridium_trials");
        parallel_for(n, [&](std::size_t j) {
          if (j == bottleneck) return;
          if (out_budget[bottleneck] < chunk || in_budget[j] < chunk) return;
          Trial& trial = trials[j];
          trial.decision = decision;
          trial.decision.move_bytes[a][bottleneck][j] += chunk;
          const TaskPlacementResult trial_task =
              solve_task_placement(problem, trial.decision.move_bytes);
          trial.decision.reduce_fractions = trial_task.reduce_fractions;
          trial.t = predicted_shuffle_seconds(problem, trial.decision);
          trial.score = upload_load_score(problem, trial.decision);
          trial.valid = true;
        });
      }
      double best_t = current_t;
      double best_score = current_score;
      std::size_t best_j = n;
      PlacementDecision best_decision;
      for (std::size_t j = 0; j < n; ++j) {
        if (!trials[j].valid) continue;
        const double trial_t = trials[j].t;
        const double trial_score = trials[j].score;
        const bool improves_t = trial_t < best_t - 1e-9;
        const bool holds_t_improves_score =
            trial_t < best_t + 1e-9 && trial_score < best_score - 1e-9;
        if (improves_t || holds_t_improves_score) {
          best_t = trial_t;
          best_score = trial_score;
          best_j = j;
          best_decision = std::move(trials[j].decision);
        }
      }
      if (best_j == n) break;  // no improving move for this dataset
      out_budget[bottleneck] -= chunk;
      in_budget[best_j] -= chunk;
      decision = std::move(best_decision);
      current_t = best_t;
      current_score = best_score;
    }
  }
  decision.predicted_shuffle_seconds = current_t;
  return decision;
}

namespace {

/// The x-step of the alternation: minimize t over {x, t} for fixed r.
struct XStepResult {
  std::vector<std::vector<std::vector<double>>> move_bytes;
  double objective = 0.0;
  bool optimal = false;
  std::size_t iterations = 0;
  bool warm_started = false;
  std::size_t peak_bytes = 0;
  lp::Basis basis;
};

/// Reusable structure of the x-step LP, built once per alternation run.
///
/// The direct transcription of constraint (4) puts every x variable in
/// every download row (each f^a_j sums in-flows from all sites), which
/// densifies the matrix to ~2*A*n^3 nonzeros and defeats a sparse
/// solver. Instead, an aggregate per-site shuffle variable
///   g_i = sum_a f^a_i(x) / unit
/// is pinned by one equality row per site, and the up/down rows become
/// 2- and n-term rows over {t, g}. Every x column then has exactly five
/// nonzeros (two g-definition rows, move_out, move_in, supply), the
/// matrix is O(A n^2), and the feasible set projects onto (x, t)
/// exactly as before. Only the up/down rows depend on r: per round they
/// are re-coefficiented in place and the solve warm-starts from the
/// previous round's optimal basis.
struct XStepLp {
  lp::LpProblem p;
  lp::VarId t = 0;
  std::vector<std::vector<std::vector<lp::VarId>>> x;  // [a][i][j]
  std::vector<lp::VarId> g;
  std::vector<std::size_t> up_row;
  std::vector<std::size_t> down_row;
  double unit = 1.0;
};

XStepLp build_x_step_lp(const PlacementProblem& problem) {
  const std::size_t n = problem.topology.site_count();
  const std::size_t n_datasets = problem.datasets.size();
  XStepLp xlp;

  // Normalize data volumes so constraint coefficients are O(1): raw
  // per-byte coefficients (~1e-10) would drown in the simplex pricing
  // tolerance and every x column would spuriously price as optimal.
  double unit = 1.0;
  for (const auto& d : problem.datasets) {
    for (const double bytes : d.input_bytes) unit = std::max(unit, bytes);
  }
  xlp.unit = unit;

  lp::LpProblem& p = xlp.p;
  xlp.t = p.add_variable(1.0);

  // The minimax objective alone is degenerate: when the binding
  // constraint at the fixed r is a download term, no x improves t and the
  // alternation stalls at x = 0. A tiny secondary objective — the sum of
  // per-site upload-time proxies f_i/U_i — steers bytes toward fast
  // uplinks at equal t, which the following r-step then converts into a
  // strictly better t. Epsilon keeps it subordinate to t.
  constexpr double kSecondaryEpsilon = 1e-3;
  const double upload_norm = [&] {
    double total = 0.0;
    for (std::size_t a = 0; a < n_datasets; ++a) {
      for (std::size_t i = 0; i < n; ++i) {
        total += rho_resident(problem, a, i) *
                 problem.datasets[a].input_bytes[i] /
                 problem.topology.uplink(i);
      }
    }
    return total > 0.0 ? total : 1.0;
  }();

  // x[a][i][j], j != i. Index helper keeps a flat variable table.
  xlp.x.assign(n_datasets, std::vector<std::vector<lp::VarId>>(
                               n, std::vector<lp::VarId>(n, 0)));
  for (std::size_t a = 0; a < n_datasets; ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        // d(sum_k f_k/U_k)/dx_ij = rho_in(i->j)/U_j - rho_i/U_i.
        const double secondary =
            kSecondaryEpsilon / upload_norm * unit *
            (rho_incoming(problem, a, i, j) / problem.topology.uplink(j) -
             rho_resident(problem, a, i) / problem.topology.uplink(i));
        xlp.x[a][i][j] = p.add_variable(secondary);
      }
    }
  }
  xlp.g.resize(n);
  for (std::size_t i = 0; i < n; ++i) xlp.g[i] = p.add_variable(0.0);

  // g-definition rows: g_i = sum_a f^a_i(x)/unit, i.e.
  //   g_i + sum_a rho_i sum_j x^a_ij - sum_a sum_k rho_in(k,i) x^a_ki
  //     = sum_a rho_i I^a_i / unit        (rhs >= 0: no sign flip).
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<lp::Term> terms{{xlp.g[i], 1.0}};
    double rhs = 0.0;
    for (std::size_t a = 0; a < n_datasets; ++a) {
      const double rho_i = rho_resident(problem, a, i);
      rhs += rho_i * problem.datasets[a].input_bytes[i] / unit;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        terms.push_back({xlp.x[a][i][j], rho_i});
        terms.push_back({xlp.x[a][j][i], -rho_incoming(problem, a, j, i)});
      }
    }
    p.add_constraint(std::move(terms), lp::Relation::Equal, rhs);
  }

  // Constraints (3)-(4) over {t, g}; coefficients depend on r and are
  // patched per round (see patch_x_step_lp).
  xlp.up_row.resize(n);
  xlp.down_row.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    xlp.up_row[i] = p.add_constraint({}, lp::Relation::LessEq, 0.0);
    xlp.down_row[i] = p.add_constraint({}, lp::Relation::LessEq, 0.0);
  }

  // Constraints (5)-(6): movement must finish within the lag T.
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<lp::Term> out_terms;
    std::vector<lp::Term> in_terms;
    for (std::size_t a = 0; a < n_datasets; ++a) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        out_terms.push_back({xlp.x[a][i][j], 1.0});
        in_terms.push_back({xlp.x[a][j][i], 1.0});
      }
    }
    p.add_constraint(std::move(out_terms), lp::Relation::LessEq,
                     problem.lag_seconds * problem.topology.uplink(i) / unit);
    p.add_constraint(std::move(in_terms), lp::Relation::LessEq,
                     problem.lag_seconds * problem.topology.downlink(i) / unit);
  }

  // A site cannot ship more of a dataset than it stores.
  for (std::size_t a = 0; a < n_datasets; ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<lp::Term> terms;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) terms.push_back({xlp.x[a][i][j], 1.0});
      }
      p.add_constraint(std::move(terms), lp::Relation::LessEq,
                       problem.datasets[a].input_bytes[i] / unit);
    }
  }
  return xlp;
}

/// Re-coefficients the up/down rows for the current r.
void patch_x_step_lp(XStepLp& xlp, const PlacementProblem& problem,
                     const std::vector<double>& r) {
  const std::size_t n = problem.topology.site_count();
  for (std::size_t i = 0; i < n; ++i) {
    // (3): (1 - r_i) unit g_i / U_i <= t.
    const double up_scale =
        (1.0 - r[i]) * xlp.unit / problem.topology.uplink(i);
    xlp.p.update_constraint(xlp.up_row[i],
                            {{xlp.g[i], up_scale}, {xlp.t, -1.0}}, 0.0);
    // (4): r_i unit sum_{j != i} g_j / D_i <= t.
    const double down_scale = r[i] * xlp.unit / problem.topology.downlink(i);
    std::vector<lp::Term> terms{{xlp.t, -1.0}};
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) terms.push_back({xlp.g[j], down_scale});
    }
    xlp.p.update_constraint(xlp.down_row[i], std::move(terms), 0.0);
  }
}

XStepResult solve_x_step(XStepLp& xlp, const PlacementProblem& problem,
                         const std::vector<double>& r,
                         const lp::Basis* warm_start) {
  const std::size_t n = problem.topology.site_count();
  const std::size_t n_datasets = problem.datasets.size();
  patch_x_step_lp(xlp, problem, r);

  const lp::LpSolution sol = lp::solve(xlp.p, {}, warm_start);
  XStepResult result;
  result.optimal = sol.optimal();
  result.iterations = sol.iterations;
  result.warm_started = sol.warm_started;
  result.peak_bytes = sol.peak_bytes;
  if (!result.optimal) return result;
  result.objective = sol.value(xlp.t);
  result.basis = sol.basis;
  result.move_bytes.assign(
      n_datasets,
      std::vector<std::vector<double>>(n, std::vector<double>(n, 0.0)));
  for (std::size_t a = 0; a < n_datasets; ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          result.move_bytes[a][i][j] =
              std::max(0.0, sol.value(xlp.x[a][i][j]) * xlp.unit);
        }
      }
    }
  }
  return result;
}

}  // namespace

namespace {

/// One alternation run from a given r seed. Monotone in t per round.
/// Rounds 2+ patch the cached LPs in place and warm-start both steps
/// from the previous round's optimal bases.
PlacementDecision alternate_from(const PlacementProblem& problem,
                                 std::vector<double> r_seed,
                                 const JointLpOptions& options,
                                 std::size_t& lp_iterations,
                                 std::size_t& lp_peak_bytes) {
  PlacementDecision decision;
  decision.move_bytes = zero_moves(problem);
  decision.reduce_fractions = std::move(r_seed);
  double best_t = predicted_shuffle_seconds(problem, decision);

  XStepLp xlp = build_x_step_lp(problem);
  TaskLp tlp;
  lp::Basis x_basis;
  lp::Basis r_basis;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    AlternationRoundStats round_stats;

    // x-step for fixed r.
    XStepResult x_step =
        solve_x_step(xlp, problem, decision.reduce_fractions,
                     x_basis.empty() ? nullptr : &x_basis);
    lp_iterations += x_step.iterations;
    lp_peak_bytes = std::max(lp_peak_bytes, x_step.peak_bytes);
    round_stats.x_iterations = x_step.iterations;
    round_stats.x_warm_started = x_step.warm_started;
    if (!x_step.optimal) {
      decision.lp_converged = false;
      decision.alternation_rounds.push_back(round_stats);
      break;
    }
    x_basis = std::move(x_step.basis);

    // r-step for the new x.
    TaskSolveStats r_solve_stats;
    TaskPlacementResult r_step = solve_task_placement_impl(
        problem, x_step.move_bytes, &tlp,
        r_basis.empty() ? nullptr : &r_basis, &r_basis, &r_solve_stats);
    lp_iterations += r_step.iterations;
    lp_peak_bytes = std::max(lp_peak_bytes, r_solve_stats.peak_bytes);
    round_stats.r_iterations = r_step.iterations;
    round_stats.r_warm_started = r_solve_stats.warm_started;
    decision.alternation_rounds.push_back(round_stats);
    if (!r_step.optimal) {
      decision.lp_converged = false;
      break;
    }

    PlacementDecision candidate;
    candidate.move_bytes = std::move(x_step.move_bytes);
    candidate.reduce_fractions = r_step.reduce_fractions;
    const double t = predicted_shuffle_seconds(problem, candidate);
    if (t < best_t - options.convergence_epsilon) {
      decision.move_bytes = std::move(candidate.move_bytes);
      decision.reduce_fractions = std::move(candidate.reduce_fractions);
      best_t = t;
    } else {
      break;  // converged (alternation is monotone)
    }
  }
  decision.predicted_shuffle_seconds = best_t;
  return decision;
}

}  // namespace

PlacementDecision joint_lp_placement(const PlacementProblem& problem,
                                     const JointLpOptions& options) {
  validate_problem(problem);
  BOHR_EXPECTS(options.max_rounds >= 1);
  const WallTimer timer;
  const std::size_t n = problem.topology.site_count();
  std::size_t lp_iterations = 0;

  // The bilinear problem has poor fixed points: e.g. when a download term
  // binds at the seed r, no x can lower t and the alternation stalls at
  // x = 0. Multi-start from structurally different r seeds and keep the
  // best run (each run is itself monotone).
  std::vector<std::vector<double>> seeds;
  std::size_t lp_peak_bytes = 0;
  {
    // Seed 1: task-placement optimum for unmoved data (Iridium's r).
    TaskSolveStats seed_stats;
    TaskPlacementResult task = solve_task_placement_impl(
        problem, zero_moves(problem), nullptr, nullptr, nullptr, &seed_stats);
    lp_iterations += task.iterations;
    lp_peak_bytes = std::max(lp_peak_bytes, seed_stats.peak_bytes);
    seeds.push_back(std::move(task.reduce_fractions));
    // Seed 2: uplink-proportional (reduce where the pipes are fat).
    std::vector<double> uplink_r(n);
    const double total_up = problem.topology.total_uplink();
    for (std::size_t i = 0; i < n; ++i) {
      uplink_r[i] = problem.topology.uplink(i) / total_up;
    }
    seeds.push_back(std::move(uplink_r));
    // Seed 3: uniform.
    seeds.emplace_back(n, 1.0 / static_cast<double>(n));
  }

  // The alternation runs are independent LP candidate solves; run them
  // concurrently with per-run iteration counters, then fold counters and
  // pick the winner in seed order (same strict-< tie-break as the serial
  // loop).
  std::vector<PlacementDecision> runs(seeds.size());
  std::vector<std::size_t> run_iterations(seeds.size(), 0);
  std::vector<std::size_t> run_peak_bytes(seeds.size(), 0);
  {
    ScopedPhase phase("lp.alternation");
    parallel_for(seeds.size(), [&](std::size_t s) {
      runs[s] = alternate_from(problem, std::move(seeds[s]), options,
                               run_iterations[s], run_peak_bytes[s]);
    });
  }
  PlacementDecision best;
  bool have_best = false;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    lp_iterations += run_iterations[s];
    lp_peak_bytes = std::max(lp_peak_bytes, run_peak_bytes[s]);
    if (!have_best ||
        runs[s].predicted_shuffle_seconds < best.predicted_shuffle_seconds) {
      best = std::move(runs[s]);
      have_best = true;
    }
  }
  best.lp_iterations = lp_iterations;
  best.lp_seconds = timer.elapsed_seconds();
  best.lp_peak_bytes = lp_peak_bytes;
  return best;
}

}  // namespace bohr::core

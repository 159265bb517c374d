#include "dense_oracle.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "lp/sparse.h"

namespace bohr::lp {

namespace {

/// Dense tableau state shared by both phases.
struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;  // structural + slack/surplus + artificial
  std::vector<std::vector<double>> a;  // rows x cols
  std::vector<double> rhs;             // per row, kept >= 0
  std::vector<std::size_t> basis;      // basic column per row
  std::vector<double> obj;             // reduced-cost row, size cols
  double obj_shift = 0.0;              // z = -obj_shift
  std::vector<bool> allowed;           // column may enter the basis

  void pivot(std::size_t prow, std::size_t pcol) {
    const double p = a[prow][pcol];
    BOHR_CHECK(std::abs(p) > 1e-12);
    const double inv = 1.0 / p;
    for (auto& v : a[prow]) v *= inv;
    rhs[prow] *= inv;
    a[prow][pcol] = 1.0;  // fight rounding
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == prow) continue;
      const double factor = a[r][pcol];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < cols; ++c) a[r][c] -= factor * a[prow][c];
      a[r][pcol] = 0.0;
      rhs[r] -= factor * rhs[prow];
      if (rhs[r] < 0.0 && rhs[r] > -1e-11) rhs[r] = 0.0;
    }
    const double ofactor = obj[pcol];
    if (ofactor != 0.0) {
      for (std::size_t c = 0; c < cols; ++c) obj[c] -= ofactor * a[prow][c];
      obj[pcol] = 0.0;
      obj_shift -= ofactor * rhs[prow];
    }
    basis[prow] = pcol;
  }

  /// Rebuilds the reduced-cost row for the given phase costs.
  void price(const std::vector<double>& costs) {
    obj = costs;
    obj.resize(cols, 0.0);
    obj_shift = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double cb = basis[r] < costs.size() ? costs[basis[r]] : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t c = 0; c < cols; ++c) obj[c] -= cb * a[r][c];
      obj_shift -= cb * rhs[r];
    }
  }
};

enum class PivotOutcome { Improved, Optimal, Unbounded };

PivotOutcome pivot_step(Tableau& t, bool bland, double eps) {
  // Entering column: most negative reduced cost (Dantzig) or first
  // negative (Bland).
  std::size_t enter = t.cols;
  double best = -eps;
  for (std::size_t c = 0; c < t.cols; ++c) {
    if (!t.allowed[c]) continue;
    if (t.obj[c] < best) {
      best = t.obj[c];
      enter = c;
      if (bland) break;
    }
  }
  if (enter == t.cols) return PivotOutcome::Optimal;

  // Ratio test; Bland tie-break on smallest basis column.
  std::size_t leave = t.rows;
  double best_ratio = std::numeric_limits<double>::max();
  for (std::size_t r = 0; r < t.rows; ++r) {
    const double arc = t.a[r][enter];
    if (arc <= eps) continue;
    const double ratio = t.rhs[r] / arc;
    if (ratio < best_ratio - eps ||
        (ratio < best_ratio + eps && leave < t.rows &&
         t.basis[r] < t.basis[leave])) {
      best_ratio = ratio;
      leave = r;
    }
  }
  if (leave == t.rows) return PivotOutcome::Unbounded;
  t.pivot(leave, enter);
  return PivotOutcome::Improved;
}

SolveStatus run_phase(Tableau& t, std::size_t max_iter, double eps,
                      std::size_t bland_after, std::size_t& iterations) {
  std::size_t stall = 0;
  double last_z = -t.obj_shift;
  while (iterations < max_iter) {
    const bool bland = stall >= bland_after;
    const PivotOutcome outcome = pivot_step(t, bland, eps);
    if (outcome == PivotOutcome::Optimal) return SolveStatus::Optimal;
    if (outcome == PivotOutcome::Unbounded) return SolveStatus::Unbounded;
    ++iterations;
    const double z = -t.obj_shift;
    if (z < last_z - eps) {
      stall = 0;
      last_z = z;
    } else {
      ++stall;
    }
  }
  return SolveStatus::IterationLimit;
}

}  // namespace

LpSolution solve_dense(const LpProblem& problem,
                       const SimplexOptions& options) {
  const StandardForm sf = standardize(problem);
  const std::size_t n = sf.n_struct;
  const std::size_t m = sf.rows;
  LpSolution solution;
  solution.values.assign(n, 0.0);

  Tableau t;
  t.rows = m;
  t.cols = sf.cols;
  t.a.assign(m, std::vector<double>(t.cols, 0.0));
  for (std::size_t c = 0; c < sf.cols; ++c) {
    for (std::size_t p = sf.a.col_start[c]; p < sf.a.col_start[c + 1]; ++p) {
      t.a[sf.a.row_index[p]][c] = sf.a.value[p];
    }
  }
  t.rhs = sf.rhs;
  t.basis = sf.initial_basis;
  t.allowed.assign(t.cols, true);
  solution.peak_bytes = sf.a.bytes() + m * t.cols * sizeof(double) +
                        (t.cols + m) * sizeof(double);

  // The same pivot cap as lp::solve.
  const std::size_t max_iter =
      options.max_iterations > 0 ? options.max_iterations
                                 : 200 + 50 * (m + 1) + 2 * t.cols;

  // ---- Phase 1: minimize sum of artificials -----------------------------
  if (sf.n_art > 0) {
    std::vector<double> phase1_costs(t.cols, 0.0);
    for (std::size_t c = 0; c < t.cols; ++c) {
      if (sf.is_artificial[c]) phase1_costs[c] = 1.0;
    }
    t.price(phase1_costs);
    const SolveStatus st = run_phase(t, max_iter, options.epsilon,
                                     options.bland_after, solution.iterations);
    if (st == SolveStatus::IterationLimit) {
      solution.status = st;
      return solution;
    }
    // Phase-1 optimum must be ~0 for feasibility.
    const double z1 = -t.obj_shift;
    if (z1 > 1e-7) {
      solution.status = SolveStatus::Infeasible;
      return solution;
    }
    // Drive remaining artificials out of the basis where possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (!sf.is_artificial[t.basis[r]]) continue;
      std::size_t pcol = t.cols;
      for (std::size_t c = 0; c < n + sf.n_slack; ++c) {
        if (std::abs(t.a[r][c]) > 1e-8) {
          pcol = c;
          break;
        }
      }
      if (pcol < t.cols) t.pivot(r, pcol);
      // else: redundant row; the artificial stays basic at value 0.
    }
    for (std::size_t c = 0; c < t.cols; ++c) {
      if (sf.is_artificial[c]) t.allowed[c] = false;
    }
  }

  // ---- Phase 2: minimize the real objective -----------------------------
  t.price(sf.cost);
  const SolveStatus st = run_phase(t, max_iter, options.epsilon,
                                   options.bland_after, solution.iterations);
  if (st != SolveStatus::Optimal) {
    solution.status = st;
    return solution;
  }

  for (std::size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) solution.values[t.basis[r]] = t.rhs[r];
  }
  // Dual extraction: y = c_B B^{-1}; the final reduced cost of a row's
  // slack/surplus/artificial column encodes y_r up to a sign. Rows whose
  // rhs was negated during normalization flip the sign back (their dual
  // is w.r.t. the ORIGINAL right-hand side).
  solution.duals.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    double y = sf.dual_sign[r] * t.obj[sf.dual_col[r]];
    if (sf.rhs_negated[r]) y = -y;  // row was normalized by -1
    solution.duals[r] = y;
  }
  double z = 0.0;
  for (VarId v = 0; v < n; ++v) {
    z += problem.objective_coeff(v) * solution.values[v];
  }
  solution.objective = z;
  solution.basis.basic = t.basis;
  solution.status = SolveStatus::Optimal;
  return solution;
}

}  // namespace bohr::lp

#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "lp/basis_lu.h"
#include "lp/sparse.h"

namespace bohr::lp {

namespace {

std::size_t auto_max_iterations(const SimplexOptions& options, std::size_t rows,
                                std::size_t cols) {
  return options.max_iterations > 0 ? options.max_iterations
                                    : 200 + 50 * (rows + 1) + 2 * cols;
}

// ------------------------------------------------------------------------
// Candidate-list pricing.
// ------------------------------------------------------------------------

/// A maximal range [begin, end) of consecutive padded columns that all
/// have `width` nonzeros. Their CSC entries sit back to back, so column
/// c's entries start at col_start[begin] + width * (c - begin).
struct ColumnRun {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t width = 0;
};

std::vector<ColumnRun> find_runs(const CscMatrix& a) {
  std::vector<ColumnRun> runs;
  for (std::size_t c = 0; c < a.cols; ++c) {
    const std::size_t width = a.col_start[c + 1] - a.col_start[c];
    if (!runs.empty() && runs.back().width == width) {
      runs.back().end = c + 1;
    } else {
      runs.push_back({c, c + 1, width});
    }
  }
  return runs;
}

/// Runs of this width are priced with a compile-time trip count, every
/// other width with a run-time one. It is the width of the placement
/// x-step's movement columns: at 64 sites they are 48,380 of its 49,537
/// padded columns, and a run-time trip count priced them slower.
constexpr std::size_t kFixedWidth = 5;

/// A refill prices this many columns per step, so the append buffer
/// needs room for only this many pairs beyond those already kept.
constexpr std::size_t kPriceChunk = 4096;

// ------------------------------------------------------------------------
// Sparse revised engine.
// ------------------------------------------------------------------------

struct RevisedContext {
  const StandardForm& sf;
  const SimplexOptions& opt;
  BasisLu lu;
  std::vector<std::size_t> basis;     // basic padded column per slot
  std::vector<std::int32_t> slot_of;  // per padded column; -1 = nonbasic
  std::vector<double> x_b;            // basic values per slot
  std::vector<char> allowed;          // per padded column
  std::vector<double> y;              // BTRAN work vector (m)
  std::vector<double> w;              // FTRAN work vector (m)
  std::vector<std::int32_t> candidates;  // partial-pricing cache
  std::vector<std::pair<double, std::int32_t>> scratch;  // pricing scratch
  std::vector<ColumnRun> runs;           // partial pricing only
  bool candidates_valid = false;
  bool use_partial = false;
  std::size_t peak_bytes = 0;

  RevisedContext(const StandardForm& s, const SimplexOptions& o)
      : sf(s), opt(o) {}

  double col_dot(std::size_t c, const std::vector<double>& v) const {
    const CscMatrix& a = sf.a;
    double s = 0.0;
    for (std::size_t p = a.col_start[c]; p < a.col_start[c + 1]; ++p) {
      s += a.value[p] * v[a.row_index[p]];
    }
    return s;
  }

  /// Prices the open columns [begin, end) of `run` against y and appends
  /// each pair (d, c) with d < -eps to scratch at `count`; returns the new
  /// count. W is the run's width as a compile-time constant, or 0 to read
  /// it at run time. Each column is summed from 0.0 in row order, as
  /// col_dot does, so d is the same double. Branch-free: every pair is
  /// written and `count` advances only past the attractive ones, so
  /// scratch needs room for end - begin more.
  template <std::size_t W>
  std::size_t price_run(const ColumnRun& run, std::size_t begin,
                        std::size_t end, const std::vector<double>& costs,
                        double eps, std::size_t count) {
    const CscMatrix& a = sf.a;
    const std::size_t width = W != 0 ? W : run.width;
    const std::size_t p = a.col_start[run.begin] + width * (begin - run.begin);
    const std::int32_t* rows = a.row_index.data() + p;
    const double* vals = a.value.data() + p;
    const double* v = y.data();
    std::pair<double, std::int32_t>* out = scratch.data();
    for (std::size_t c = begin; c < end; ++c, rows += width, vals += width) {
      double s = 0.0;
      for (std::size_t k = 0; k < width; ++k) s += vals[k] * v[rows[k]];
      const double d = costs[c] - s;
      out[count] = {d, static_cast<std::int32_t>(c)};
      count += static_cast<std::size_t>((allowed[c] != 0) & (slot_of[c] < 0) &
                                        (d < -eps));
    }
    return count;
  }

  /// Refills the candidate list: the opt.candidate_list_size smallest
  /// (reduced cost, column) pairs over every open column with reduced
  /// cost below -eps, in ascending order. The pairs are unique by column,
  /// so select-then-sort-the-prefix is exact.
  void refill_candidates(const std::vector<double>& costs, double eps) {
    std::size_t count = 0;
    for (const ColumnRun& run : runs) {
      for (std::size_t begin = run.begin; begin < run.end;
           begin += kPriceChunk) {
        const std::size_t end = std::min(run.end, begin + kPriceChunk);
        if (scratch.size() < count + (end - begin)) {
          scratch.resize(count + kPriceChunk);
        }
        count = run.width == kFixedWidth
                    ? price_run<kFixedWidth>(run, begin, end, costs, eps,
                                             count)
                    : price_run<0>(run, begin, end, costs, eps, count);
      }
    }
    const std::size_t keep = std::min(opt.candidate_list_size, count);
    const auto first = scratch.begin();
    const auto kept = first + static_cast<std::ptrdiff_t>(keep);
    std::nth_element(first, kept, first + static_cast<std::ptrdiff_t>(count));
    std::sort(first, kept);
    candidates.clear();
    for (auto it = first; it != kept; ++it) candidates.push_back(it->second);
  }

  void scatter_col(std::size_t c, std::vector<double>& out) const {
    std::fill(out.begin(), out.end(), 0.0);
    const CscMatrix& a = sf.a;
    for (std::size_t p = a.col_start[c]; p < a.col_start[c + 1]; ++p) {
      out[a.row_index[p]] = a.value[p];
    }
  }

  void note_memory() {
    const std::size_t current =
        sf.a.bytes() + lu.bytes() + (x_b.capacity() + y.capacity() + w.capacity()) * sizeof(double) +
        basis.capacity() * sizeof(std::size_t) +
        slot_of.capacity() * sizeof(std::int32_t) + allowed.capacity() +
        candidates.capacity() * sizeof(std::int32_t) +
        scratch.capacity() * sizeof(std::pair<double, std::int32_t>) +
        runs.capacity() * sizeof(ColumnRun);
    peak_bytes = std::max(peak_bytes, current);
  }

  /// Refactorizes B and recomputes x_B = B^{-1} b from scratch.
  bool refactorize() {
    if (!lu.factorize(sf.a, basis)) return false;
    x_b = sf.rhs;
    lu.ftran(x_b);
    for (double& v : x_b) {
      if (v < 0.0 && v > -1e-11) v = 0.0;
    }
    note_memory();
    return true;
  }

  /// y := B^{-T} c_B for the given phase costs (indexed by row on exit).
  void compute_y(const std::vector<double>& costs) {
    for (std::size_t r = 0; r < sf.rows; ++r) y[r] = costs[basis[r]];
    lu.btran(y);
  }

  /// Applies the basis change (slot `leave` <- column `enter`) with the
  /// FTRAN image `w` of the entering column, updating x_B the same way
  /// the dense tableau does (including the tiny-negative clamp). Returns
  /// false on a numerically failed refactorization.
  bool change_basis(std::size_t leave, std::size_t enter) {
    const double theta = x_b[leave] / w[leave];
    for (std::size_t r = 0; r < sf.rows; ++r) {
      if (r == leave) continue;
      if (w[r] == 0.0) continue;
      x_b[r] -= w[r] * theta;
      if (x_b[r] < 0.0 && x_b[r] > -1e-11) x_b[r] = 0.0;
    }
    x_b[leave] = theta;
    slot_of[basis[leave]] = -1;
    slot_of[enter] = static_cast<std::int32_t>(leave);
    basis[leave] = enter;
    if (lu.eta_count() >= opt.refactor_interval) {
      return refactorize();
    }
    lu.push_eta(leave, w);
    note_memory();
    return true;
  }
};

enum class StepOutcome { Pivoted, Optimal, Unbounded, NumericalFailure };

StepOutcome revised_step(RevisedContext& ctx, const std::vector<double>& costs,
                         bool bland, double eps) {
  ctx.compute_y(costs);
  const std::size_t cols = ctx.sf.cols;
  auto reduced = [&](std::size_t c) {
    return costs[c] - ctx.col_dot(c, ctx.y);
  };

  // Entering column: most negative reduced cost (Dantzig) or first
  // negative (Bland), lowest index on ties — the dense oracle's rule.
  std::size_t enter = cols;
  double best = -eps;
  if (bland) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!ctx.allowed[c] || ctx.slot_of[c] >= 0) continue;
      if (reduced(c) < -eps) {
        enter = c;
        break;
      }
    }
  } else if (ctx.use_partial) {
    // Candidate-list pricing: scan the cached list, dropping entries
    // whose reduced cost is no longer attractive; refill with a full
    // pass when the list runs dry. Deterministic: the list is filled by
    // (reduced cost, column) order and scanned in full each pivot.
    bool refreshed = false;
    while (true) {
      if (!ctx.candidates_valid) {
        ctx.refill_candidates(costs, eps);
        ctx.candidates_valid = true;
        refreshed = true;
      }
      std::size_t write = 0;
      for (const std::int32_t c : ctx.candidates) {
        if (!ctx.allowed[c] || ctx.slot_of[c] >= 0) continue;
        const double d = reduced(c);
        if (d >= -eps) continue;  // no longer attractive; drop
        ctx.candidates[write++] = c;
        if (d < best) {
          best = d;
          enter = c;
        }
      }
      ctx.candidates.resize(write);
      if (enter != cols) break;
      ctx.candidates_valid = false;
      if (refreshed) break;  // full pass found nothing: optimal
    }
  } else {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!ctx.allowed[c] || ctx.slot_of[c] >= 0) continue;
      const double d = reduced(c);
      if (d < best) {
        best = d;
        enter = c;
      }
    }
  }
  if (enter == cols) return StepOutcome::Optimal;

  // Ratio test over w = B^{-1} a_enter; tie-break on smallest basis
  // column, exactly as the dense oracle.
  ctx.scatter_col(enter, ctx.w);
  ctx.lu.ftran(ctx.w);
  const std::size_t m = ctx.sf.rows;
  std::size_t leave = m;
  double best_ratio = std::numeric_limits<double>::max();
  for (std::size_t r = 0; r < m; ++r) {
    const double arc = ctx.w[r];
    if (arc <= eps) continue;
    const double ratio = ctx.x_b[r] / arc;
    if (ratio < best_ratio - eps ||
        (ratio < best_ratio + eps && leave < m &&
         ctx.basis[r] < ctx.basis[leave])) {
      best_ratio = ratio;
      leave = r;
    }
  }
  if (leave == m) return StepOutcome::Unbounded;
  if (!ctx.change_basis(leave, enter)) return StepOutcome::NumericalFailure;
  return StepOutcome::Pivoted;
}

SolveStatus run_phase_revised(RevisedContext& ctx,
                              const std::vector<double>& costs,
                              std::size_t max_iter, double eps,
                              std::size_t bland_after,
                              std::size_t& iterations) {
  auto z_now = [&] {
    double z = 0.0;
    for (std::size_t r = 0; r < ctx.sf.rows; ++r) {
      z += costs[ctx.basis[r]] * ctx.x_b[r];
    }
    return z;
  };
  ctx.candidates_valid = false;  // phase costs changed
  std::size_t stall = 0;
  double last_z = z_now();
  while (iterations < max_iter) {
    const bool bland = stall >= bland_after;
    const StepOutcome outcome = revised_step(ctx, costs, bland, eps);
    if (outcome == StepOutcome::Optimal) return SolveStatus::Optimal;
    if (outcome == StepOutcome::Unbounded) return SolveStatus::Unbounded;
    if (outcome == StepOutcome::NumericalFailure) {
      return SolveStatus::IterationLimit;
    }
    ++iterations;
    const double z = z_now();
    if (z < last_z - eps) {
      stall = 0;
      last_z = z;
    } else {
      ++stall;
    }
  }
  return SolveStatus::IterationLimit;
}

LpSolution solve_revised(const LpProblem& problem, const StandardForm& sf,
                         const SimplexOptions& options,
                         const Basis* warm_start) {
  const std::size_t n = sf.n_struct;
  const std::size_t m = sf.rows;
  LpSolution solution;
  solution.values.assign(n, 0.0);

  RevisedContext ctx(sf, options);
  ctx.use_partial = options.partial_pricing_threshold > 0 &&
                    sf.cols >= options.partial_pricing_threshold;
  if (ctx.use_partial) {
    // An empty list would make the first refill keep nothing and end the
    // phase as "optimal" at its starting basis.
    BOHR_EXPECTS(options.candidate_list_size > 0);
    ctx.runs = find_runs(sf.a);
  }
  ctx.x_b.assign(m, 0.0);
  ctx.y.assign(m, 0.0);
  ctx.w.assign(m, 0.0);
  ctx.allowed.assign(sf.cols, 1);
  ctx.slot_of.assign(sf.cols, -1);

  // Warm start: accept the previous basis iff it is structurally valid
  // and still primal feasible after refactorization; otherwise cold.
  bool warm_ok = false;
  if (warm_start != nullptr && warm_start->basic.size() == m && m > 0) {
    bool valid = true;
    for (std::size_t slot = 0; slot < m && valid; ++slot) {
      const std::size_t c = warm_start->basic[slot];
      if (c >= sf.cols || ctx.slot_of[c] >= 0) {
        valid = false;
      } else {
        ctx.slot_of[c] = static_cast<std::int32_t>(slot);
      }
    }
    if (valid) {
      ctx.basis = warm_start->basic;
      if (ctx.refactorize()) {
        double min_v = 0.0;
        for (const double v : ctx.x_b) min_v = std::min(min_v, v);
        if (min_v >= -1e-7) {
          for (double& v : ctx.x_b) {
            if (v < 0.0) v = 0.0;
          }
          warm_ok = true;
        }
      }
    }
    if (!warm_ok) std::fill(ctx.slot_of.begin(), ctx.slot_of.end(), -1);
  }
  if (!warm_ok) {
    ctx.basis = sf.initial_basis;
    for (std::size_t slot = 0; slot < m; ++slot) {
      ctx.slot_of[ctx.basis[slot]] = static_cast<std::int32_t>(slot);
    }
    // The initial basis is the identity (unit slack/artificial columns),
    // so this factorization cannot fail.
    BOHR_CHECK(ctx.refactorize());
  }
  solution.warm_started = warm_ok;

  const std::size_t max_iter = auto_max_iterations(options, m, sf.cols);

  // ---- Phase 1: minimize sum of artificials -----------------------------
  // A cold start needs phase 1 whenever artificials exist (mirroring the
  // dense oracle); a warm start only when a basic artificial carries a
  // nonzero value (i.e. the inherited basis is not feasible for the
  // original rows).
  bool need_phase1 = false;
  if (warm_ok) {
    double art_sum = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (sf.is_artificial[ctx.basis[r]]) art_sum += ctx.x_b[r];
    }
    need_phase1 = art_sum > 1e-7;
  } else {
    need_phase1 = sf.n_art > 0;
  }
  if (need_phase1) {
    std::vector<double> phase1_costs(sf.cols, 0.0);
    for (std::size_t c = 0; c < sf.cols; ++c) {
      if (sf.is_artificial[c]) phase1_costs[c] = 1.0;
    }
    const SolveStatus st =
        run_phase_revised(ctx, phase1_costs, max_iter, options.epsilon,
                          options.bland_after, solution.iterations);
    if (st != SolveStatus::Optimal) {
      solution.status = st;
      solution.peak_bytes = ctx.peak_bytes;
      return solution;
    }
    double z1 = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      z1 += phase1_costs[ctx.basis[r]] * ctx.x_b[r];
    }
    if (z1 > 1e-7) {
      solution.status = SolveStatus::Infeasible;
      solution.peak_bytes = ctx.peak_bytes;
      return solution;
    }
    // Drive remaining artificials out of the basis where possible: the
    // first structural/slack column with a nonzero tableau entry in the
    // row, exactly as the dense oracle (pivots not counted).
    for (std::size_t r = 0; r < m; ++r) {
      if (!sf.is_artificial[ctx.basis[r]]) continue;
      std::fill(ctx.y.begin(), ctx.y.end(), 0.0);
      ctx.y[r] = 1.0;
      ctx.lu.btran(ctx.y);  // rho = B^{-T} e_r; tableau row r = rho' A
      std::size_t pcol = sf.cols;
      for (std::size_t c = 0; c < n + sf.n_slack; ++c) {
        if (ctx.slot_of[c] >= 0) continue;
        if (std::abs(ctx.col_dot(c, ctx.y)) > 1e-8) {
          pcol = c;
          break;
        }
      }
      if (pcol < sf.cols) {
        ctx.scatter_col(pcol, ctx.w);
        ctx.lu.ftran(ctx.w);
        if (!ctx.change_basis(r, pcol)) {
          solution.status = SolveStatus::IterationLimit;
          solution.peak_bytes = ctx.peak_bytes;
          return solution;
        }
      }
      // else: redundant row; the artificial stays basic at value 0.
    }
  }
  for (std::size_t c = 0; c < sf.cols; ++c) {
    if (sf.is_artificial[c]) ctx.allowed[c] = 0;
  }

  // ---- Phase 2: minimize the real objective -----------------------------
  const SolveStatus st =
      run_phase_revised(ctx, sf.cost, max_iter, options.epsilon,
                        options.bland_after, solution.iterations);
  solution.peak_bytes = ctx.peak_bytes;
  if (st != SolveStatus::Optimal) {
    solution.status = st;
    return solution;
  }

  for (std::size_t r = 0; r < m; ++r) {
    if (ctx.basis[r] < n) solution.values[ctx.basis[r]] = ctx.x_b[r];
  }
  // Dual extraction: with y = B^{-T} c_B, the reduced cost of a row's
  // designated slack/surplus/artificial column encodes y_r up to a sign
  // (and the rhs-negation flip), matching the dense oracle.
  ctx.compute_y(sf.cost);
  solution.duals.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t c = sf.dual_col[r];
    const double d = sf.cost[c] - ctx.col_dot(c, ctx.y);
    double yv = sf.dual_sign[r] * d;
    if (sf.rhs_negated[r]) yv = -yv;
    solution.duals[r] = yv;
  }
  double z = 0.0;
  for (VarId v = 0; v < n; ++v) {
    z += problem.objective_coeff(v) * solution.values[v];
  }
  solution.objective = z;
  solution.basis.basic = ctx.basis;
  solution.status = SolveStatus::Optimal;
  return solution;
}

}  // namespace

LpSolution solve(const LpProblem& problem, const SimplexOptions& options,
                 const Basis* warm_start) {
  return solve_revised(problem, standardize(problem), options, warm_start);
}

}  // namespace bohr::lp

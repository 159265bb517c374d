// Two-phase primal simplex.
//
// Purpose-built for the placement LPs of §5: a sparse revised simplex
// (CSC constraint matrix, LU-factorized basis with eta-file updates and
// periodic refactorization, BTRAN/FTRAN solves, candidate-list pricing
// at scale) that solves the hundreds-of-sites joint LPs in O(nonzeros)
// memory. The original dense-tableau engine lives on in tests/lp as its
// differential oracle: both standardize the problem identically and
// apply the same Dantzig-with-Bland-fallback entering rule and
// lowest-index tie-breaks, so their pivot sequences coincide (exactly,
// when every column is priced).
//
// Candidate-list pricing keeps the candidate_list_size smallest
// (reduced cost, column) pairs, ascending, and refills the list by
// pricing every column when it runs dry. A refill walks the matrix in
// runs of consecutive columns with equal nonzero counts and prices each
// column in place, reading the run's width once instead of each
// column's bounds. Every reduced cost is the same double col-by-col
// pricing gives, so the list and the pivot path are exact and
// deterministic.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.h"

namespace bohr::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// A simplex basis: the basic padded column (structural | slack/surplus
/// | artificial, in standard-form order) per constraint row. Returned
/// with every optimal solution and accepted as a warm start: if the
/// basis is still primal feasible for the (possibly re-coefficiented)
/// problem, phase 1 is skipped and phase 2 resumes from it; otherwise
/// the solver silently cold-starts.
struct Basis {
  std::vector<std::size_t> basic;

  bool empty() const { return basic.empty(); }
};

struct LpSolution {
  SolveStatus status = SolveStatus::Infeasible;
  std::vector<double> values;  // per original variable
  double objective = 0.0;
  std::size_t iterations = 0;
  /// Dual value per constraint: the marginal change of the optimal
  /// objective per unit increase of that constraint's right-hand side
  /// (d z*/d b_i). Satisfies strong duality: z* = sum_i duals[i]*b_i
  /// whenever status == Optimal. Empty unless optimal.
  std::vector<double> duals;
  /// The optimal basis (empty unless optimal). Feed back as the
  /// warm_start of a structurally identical problem.
  Basis basis;
  /// Peak heap footprint of the solver state (tableau or CSC + LU +
  /// eta file + work vectors), in bytes.
  std::size_t peak_bytes = 0;
  /// True when a supplied warm-start basis was accepted.
  bool warm_started = false;

  bool optimal() const { return status == SolveStatus::Optimal; }
  double value(VarId v) const { return values.at(v); }
  double dual(std::size_t constraint) const { return duals.at(constraint); }
};

struct SimplexOptions {
  /// Hard cap on pivots across both phases; 0 = auto (scales with size).
  std::size_t max_iterations = 0;
  /// Numerical tolerance for pricing and ratio tests.
  double epsilon = 1e-9;
  /// Switch from Dantzig to Bland pricing after this many degenerate
  /// pivots in a row (guarantees termination).
  std::size_t bland_after = 64;
  /// Refactorize the basis after this many eta updates.
  std::size_t refactor_interval = 64;
  /// Above this many padded columns, Dantzig pricing scans a cached
  /// candidate list instead of every column (refilled by a full pass
  /// when it runs dry). Below it, every column is priced each pivot —
  /// bit-compatible with the dense oracle's pivot order.
  std::size_t partial_pricing_threshold = 8192;
  /// Candidate-list capacity for partial pricing; must be positive when
  /// partial pricing is active (solve throws ContractViolation).
  std::size_t candidate_list_size = 512;
};

/// Solves `problem` (minimization, x >= 0). Deterministic. `warm_start`
/// (from a previous LpSolution::basis of a structurally identical
/// problem) seeds the initial basis; a null or rejected warm start falls
/// back to a cold two-phase solve.
LpSolution solve(const LpProblem& problem, const SimplexOptions& options = {},
                 const Basis* warm_start = nullptr);

}  // namespace bohr::lp

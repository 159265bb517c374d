// Dense-tableau two-phase simplex: the differential oracle for the sparse
// revised engine behind lp::solve.
//
// It solves the same lp::standardize form with the same
// Dantzig-with-Bland-fallback entering rule and lowest-index
// tie-breaks, so its pivot sequence coincides with the revised engine's
// whenever that engine prices every column.
#pragma once

#include "lp/problem.h"
#include "lp/simplex.h"

namespace bohr::lp {

/// Solves `problem` (minimization, x >= 0) on a dense tableau. Always
/// cold-starts; `peak_bytes` reports the tableau's footprint. Warm-start
/// and pricing options are ignored.
LpSolution solve_dense(const LpProblem& problem,
                       const SimplexOptions& options = {});

}  // namespace bohr::lp

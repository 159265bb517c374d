// Sparse (CSC) standard-form view of an LpProblem.
//
// The sparse revised simplex and its dense-tableau test oracle solve the
// same standardized program
//   min c'x  s.t.  Ax = b, x >= 0, b >= 0
// with the padded column layout structural | slack/surplus | artificial
// and the same rhs-negation / relation-flip normalization, so both see
// identical problems (identical pivot sequences in exact arithmetic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/problem.h"

namespace bohr::lp {

/// Compressed-sparse-column matrix. Row indices within a column are
/// stored in ascending order; duplicate (row, col) entries are summed
/// at construction time.
struct CscMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> col_start;  // size cols + 1
  std::vector<std::int32_t> row_index;  // size nnz
  std::vector<double> value;            // size nnz

  std::size_t bytes() const {
    return col_start.capacity() * sizeof(std::size_t) +
           row_index.capacity() * sizeof(std::int32_t) +
           value.capacity() * sizeof(double);
  }
};

/// The standardized program plus the bookkeeping needed to map a basic
/// solution back to the original problem (values, duals).
struct StandardForm {
  std::size_t n_struct = 0;  // original variables
  std::size_t n_slack = 0;   // slack/surplus columns
  std::size_t n_art = 0;     // artificial columns
  std::size_t rows = 0;      // = constraint rows m
  std::size_t cols = 0;      // n_struct + n_slack + n_art

  CscMatrix a;              // rows x cols
  std::vector<double> rhs;  // per row, >= 0 after normalization
  std::vector<double> cost;  // phase-2 cost per padded column

  std::vector<std::size_t> initial_basis;  // basic column per row
  std::vector<bool> is_artificial;         // per padded column

  // Per original constraint row: the padded column whose final reduced
  // cost encodes the dual value, the sign mapping it back, and whether
  // the row's rhs was negated during normalization (the dual is w.r.t.
  // the ORIGINAL right-hand side).
  std::vector<std::size_t> dual_col;
  std::vector<double> dual_sign;
  std::vector<bool> rhs_negated;
};

/// Builds the standard form. Deterministic: column order and per-column
/// row order depend only on the problem contents.
StandardForm standardize(const LpProblem& problem);

}  // namespace bohr::lp

// Sparse LU factorization of a simplex basis, with product-form eta
// updates between refactorizations.
//
// B = A[:, basis] is factorized P B = L U by a left-looking
// Gilbert-Peierls elimination (sparse triangular solves over the DFS
// reach of each column's pattern) with partial pivoting. Basis changes
// append eta matrices (product form of the inverse); FTRAN applies
// L/U then the etas, BTRAN applies the eta transposes then U'/L'.
// The solver refactorizes periodically to bound eta-file growth and
// rounding drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace bohr::lp {

class BasisLu {
 public:
  /// Factorizes B = A[:, basis[slot]] (one column per slot, slots ==
  /// rows). Returns false if the basis is (numerically) singular.
  /// Discards any pending eta updates.
  bool factorize(const CscMatrix& a, const std::vector<std::size_t>& basis);

  std::size_t eta_count() const { return etas_.size(); }

  /// Records the basis change "slot `p` now holds a column whose FTRAN
  /// image (before this update) is `w`" as a product-form eta.
  /// `w` is dense, indexed by slot; w[p] must be nonzero.
  void push_eta(std::size_t p, const std::vector<double>& w);

  /// x := B^{-1} x. Input indexed by constraint row, output by slot.
  void ftran(std::vector<double>& x) const;

  /// x := B^{-T} x. Input indexed by slot, output by constraint row.
  void btran(std::vector<double>& x) const;

  /// Current heap footprint of the factors + eta file, in bytes.
  std::size_t bytes() const;

 private:
  struct Eta {
    std::int32_t pivot = 0;
    double pivot_value = 1.0;
    std::vector<std::pair<std::int32_t, double>> entries;  // excludes pivot
  };

  std::size_t m_ = 0;
  // L: unit lower triangular, stored by column in position space
  // (below-diagonal entries only). U: upper triangular by column;
  // diagonal kept separately.
  std::vector<std::size_t> l_start_;
  std::vector<std::int32_t> l_index_;
  std::vector<double> l_value_;
  std::vector<std::size_t> u_start_;
  std::vector<std::int32_t> u_index_;
  std::vector<double> u_value_;
  std::vector<double> u_diag_;
  std::vector<std::int32_t> pinv_;        // row -> position
  std::vector<std::int32_t> row_of_pos_;  // position -> row
  std::vector<Eta> etas_;
  std::size_t eta_entry_bytes_ = 0;

  // Factorization + permutation workspace (reused across calls).
  mutable std::vector<double> work_;
  std::vector<std::int32_t> pattern_;
  std::vector<std::int32_t> dfs_stack_;
  std::vector<std::size_t> dfs_next_;
  std::vector<unsigned char> marked_;
};

}  // namespace bohr::lp

// Linear-program model builder.
//
// Variables are non-negative reals (matching the placement formulation
// in §5: data amounts and task fractions are >= 0); constraints are
// sparse rows with <=, >= or = relations. The objective is minimized.
#pragma once

#include <cstddef>
#include <vector>

namespace bohr::lp {

enum class Relation { LessEq, GreaterEq, Equal };

/// Index of a variable within an LpProblem.
using VarId = std::size_t;

/// One sparse constraint term: coefficient * variable.
struct Term {
  VarId var = 0;
  double coeff = 0.0;
};

struct ConstraintRow {
  std::vector<Term> terms;
  Relation relation = Relation::LessEq;
  double rhs = 0.0;
};

class LpProblem {
 public:
  /// Adds a variable with the given objective coefficient; returns its id.
  VarId add_variable(double objective_coeff = 0.0);

  /// Adds a constraint. Terms may repeat a variable (coefficients sum).
  /// Returns the row index (usable with update_constraint).
  std::size_t add_constraint(std::vector<Term> terms, Relation relation,
                             double rhs);

  /// Replaces the terms and right-hand side of an existing row in place
  /// (the relation is kept). This is the incremental-update hook used by
  /// the alternating joint LP: per-round LPs share one structure and only
  /// re-coefficient the rows that depend on the fixed block.
  void update_constraint(std::size_t row, std::vector<Term> terms, double rhs);

  std::size_t variable_count() const { return objective_.size(); }
  std::size_t constraint_count() const { return rows_.size(); }
  double objective_coeff(VarId v) const;
  const std::vector<ConstraintRow>& rows() const { return rows_; }

 private:
  std::vector<double> objective_;
  std::vector<ConstraintRow> rows_;
};

}  // namespace bohr::lp

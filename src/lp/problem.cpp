#include "lp/problem.h"

#include <utility>

#include "common/check.h"

namespace bohr::lp {

VarId LpProblem::add_variable(double objective_coeff) {
  objective_.push_back(objective_coeff);
  return objective_.size() - 1;
}

std::size_t LpProblem::add_constraint(std::vector<Term> terms,
                                      Relation relation, double rhs) {
  for (const Term& t : terms) BOHR_EXPECTS(t.var < objective_.size());
  rows_.push_back(ConstraintRow{std::move(terms), relation, rhs});
  return rows_.size() - 1;
}

void LpProblem::update_constraint(std::size_t row, std::vector<Term> terms,
                                  double rhs) {
  BOHR_EXPECTS(row < rows_.size());
  for (const Term& t : terms) BOHR_EXPECTS(t.var < objective_.size());
  rows_[row].terms = std::move(terms);
  rows_[row].rhs = rhs;
}

double LpProblem::objective_coeff(VarId v) const {
  BOHR_EXPECTS(v < objective_.size());
  return objective_[v];
}

}  // namespace bohr::lp

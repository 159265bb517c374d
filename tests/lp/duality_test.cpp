// Dual values: strong duality and marginal interpretation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "lp/simplex.h"

namespace bohr::lp {
namespace {

double dual_objective(const LpProblem& p, const LpSolution& sol) {
  double z = 0.0;
  for (std::size_t r = 0; r < p.constraint_count(); ++r) {
    z += sol.dual(r) * p.rows()[r].rhs;
  }
  return z;
}

TEST(DualityTest, StrongDualityOnKnownProblem) {
  // min 2x + 3y s.t. x + y >= 4, x + 2y >= 6; optimum 10 at (2,2).
  LpProblem p;
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::GreaterEq, 4);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::GreaterEq, 6);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-8);
  // Duals of binding >= constraints in a min problem are non-negative
  // (raising the requirement raises cost).
  EXPECT_GE(sol.dual(0), -1e-9);
  EXPECT_GE(sol.dual(1), -1e-9);
}

TEST(DualityTest, LessEqDualsAreNonPositive) {
  // max-style: min -3x - 2y s.t. x + y <= 4, x <= 3.
  LpProblem p;
  const VarId x = p.add_variable(-3.0);
  const VarId y = p.add_variable(-2.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 4);
  p.add_constraint({{x, 1}}, Relation::LessEq, 3);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-8);
  // Relaxing a <= bound can only reduce a min objective.
  EXPECT_LE(sol.dual(0), 1e-9);
  EXPECT_LE(sol.dual(1), 1e-9);
}

TEST(DualityTest, NonBindingConstraintHasZeroDual) {
  // min x s.t. x >= 2, x <= 100 (slack at optimum).
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 2);
  p.add_constraint({{x, 1}}, Relation::LessEq, 100);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.dual(0), 1.0, 1e-9);  // binding: dz/db = 1
  EXPECT_NEAR(sol.dual(1), 0.0, 1e-9);  // complementary slackness
}

TEST(DualityTest, EqualityConstraintDual) {
  // min x + 2y s.t. x + y = 5 -> all mass on x, z = 5, dz/db = 1.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(2.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::Equal, 5);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
  EXPECT_NEAR(sol.dual(0), 1.0, 1e-9);
}

TEST(DualityTest, DualPredictsRhsPerturbation) {
  // Perturb b and compare the actual objective change to the dual.
  LpProblem p;
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::GreaterEq, 4);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::GreaterEq, 6);
  const auto base = solve(p);
  ASSERT_TRUE(base.optimal());

  const double eps = 1e-3;
  LpProblem p2;
  const VarId x2 = p2.add_variable(2.0);
  const VarId y2 = p2.add_variable(3.0);
  p2.add_constraint({{x2, 1}, {y2, 1}}, Relation::GreaterEq, 4 + eps);
  p2.add_constraint({{x2, 1}, {y2, 2}}, Relation::GreaterEq, 6);
  const auto bumped = solve(p2);
  ASSERT_TRUE(bumped.optimal());
  EXPECT_NEAR((bumped.objective - base.objective) / eps, base.dual(0), 1e-5);
}

TEST(DualityTest, StrongDualityOnRandomFeasibleProblems) {
  Rng rng(515);
  for (int trial = 0; trial < 40; ++trial) {
    LpProblem p;
    std::vector<VarId> vars;
    for (int v = 0; v < 4; ++v) {
      vars.push_back(p.add_variable(rng.uniform(0.5, 3.0)));
    }
    for (int c = 0; c < 5; ++c) {
      std::vector<Term> terms;
      for (const VarId v : vars) terms.push_back({v, rng.uniform(0.2, 2.0)});
      p.add_constraint(std::move(terms), Relation::GreaterEq,
                       rng.uniform(1.0, 6.0));
    }
    const auto sol = solve(p);
    ASSERT_TRUE(sol.optimal()) << "trial " << trial;
    EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-6)
        << "trial " << trial;
  }
}

TEST(DualityTest, NegativeRhsNormalizationKeepsDualConvention) {
  // -x <= -2 is x >= 2 in disguise; the dual must still be d z*/d b with
  // respect to the ORIGINAL rhs (-2): lowering b (towards -3) tightens
  // x >= 3, raising cost -> dual is negative.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, -1}}, Relation::LessEq, -2);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-8);
  EXPECT_LT(sol.dual(0), 0.0);
}

}  // namespace
}  // namespace bohr::lp

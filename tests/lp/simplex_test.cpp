#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace bohr::lp {
namespace {

TEST(SimplexTest, TrivialNonNegativityOptimum) {
  // min x, x >= 0 -> x = 0.
  LpProblem p;
  p.add_variable(1.0);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_DOUBLE_EQ(sol.value(0), 0.0);
  EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x, x >= 0, no upper bound.
  LpProblem p;
  p.add_variable(-1.0);
  const auto sol = solve(p);
  EXPECT_EQ(sol.status, SolveStatus::Unbounded);
}

TEST(SimplexTest, SimpleMaximizationViaNegation) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
  LpProblem p;
  const VarId x = p.add_variable(-3.0);
  const VarId y = p.add_variable(-2.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 4);
  p.add_constraint({{x, 1}, {y, 3}}, Relation::LessEq, 6);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 4.0, 1e-9);
  EXPECT_NEAR(sol.value(y), 0.0, 1e-9);
  EXPECT_NEAR(sol.objective, -12.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(1.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::Equal, 5);
  p.add_constraint({{x, 1}, {y, -1}}, Relation::Equal, 1);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 3.0, 1e-9);
  EXPECT_NEAR(sol.value(y), 2.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraints) {
  // Classic diet-style LP: min 2x + 3y s.t. x + y >= 4, x + 2y >= 6.
  // Optimum at intersection (2, 2): obj = 10.
  LpProblem p;
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::GreaterEq, 4);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::GreaterEq, 6);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.value(x), 2.0, 1e-9);
  EXPECT_NEAR(sol.value(y), 2.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 3 cannot hold together.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 3);
  const auto sol = solve(p);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // -x <= -2  <=>  x >= 2; min x -> 2.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, -1}}, Relation::LessEq, -2);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 2.0, 1e-9);
}

TEST(SimplexTest, DuplicateTermsAccumulate) {
  // x + x <= 4 -> x <= 2; min -x -> x = 2.
  LpProblem p;
  const VarId x = p.add_variable(-1.0);
  p.add_constraint({{x, 1}, {x, 1}}, Relation::LessEq, 4);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 2.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LpProblem p;
  const VarId x = p.add_variable(-1.0);
  const VarId y = p.add_variable(-1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}, {y, 0}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 2);
  p.add_constraint({{y, 1}}, Relation::LessEq, 1);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(SimplexTest, MinimaxEpigraphForm) {
  // The placement LP shape: min t s.t. a_i x + b_i <= t.
  // With x fixed by x = 1 (equality), t = max(3*1, 5 - 1) = 4.
  LpProblem p;
  const VarId t = p.add_variable(1.0);
  const VarId x = p.add_variable(0.0);
  p.add_constraint({{x, 1}}, Relation::Equal, 1);
  p.add_constraint({{x, 3}, {t, -1}}, Relation::LessEq, 0);
  p.add_constraint({{x, -1}, {t, -1}}, Relation::LessEq, -5);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(t), 4.0, 1e-9);
}

TEST(SimplexTest, TransportationProblem) {
  // 2 supplies (10, 20), 2 demands (15, 15), costs [[1,4],[2,1]].
  // Optimal: s0->d0 10, s1->d0 5, s1->d1 15 => 10 + 10 + 15 = 35.
  LpProblem p;
  std::vector<std::vector<VarId>> x(2, std::vector<VarId>(2));
  const double cost[2][2] = {{1, 4}, {2, 1}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      x[i][j] = p.add_variable(cost[i][j]);
    }
  }
  p.add_constraint({{x[0][0], 1}, {x[0][1], 1}}, Relation::Equal, 10);
  p.add_constraint({{x[1][0], 1}, {x[1][1], 1}}, Relation::Equal, 20);
  p.add_constraint({{x[0][0], 1}, {x[1][0], 1}}, Relation::Equal, 15);
  p.add_constraint({{x[0][1], 1}, {x[1][1], 1}}, Relation::Equal, 15);
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 35.0, 1e-8);
}

// Property test: random feasible-by-construction LPs — simplex objective
// must match a brute-force scan over basic feasible vertex candidates on
// 2-variable problems.
TEST(SimplexTest, TwoVarRandomProblemsMatchBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem p;
    const VarId x = p.add_variable(rng.uniform(0.1, 3.0));
    const VarId y = p.add_variable(rng.uniform(0.1, 3.0));
    struct Row {
      double a, b, rhs;
    };
    std::vector<Row> rows;
    for (int c = 0; c < 4; ++c) {
      // a x + b y >= rhs with positive coefficients: always feasible.
      Row r{rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
            rng.uniform(1.0, 5.0)};
      rows.push_back(r);
      p.add_constraint({{x, r.a}, {y, r.b}}, Relation::GreaterEq, r.rhs);
    }
    const auto sol = solve(p);
    ASSERT_TRUE(sol.optimal()) << "trial " << trial;

    // Brute force: evaluate all pairwise constraint intersections and
    // axis intercepts; keep feasible ones.
    const double cx = p.objective_coeff(x);
    const double cy = p.objective_coeff(y);
    auto feasible = [&](double vx, double vy) {
      if (vx < -1e-9 || vy < -1e-9) return false;
      for (const auto& r : rows) {
        if (r.a * vx + r.b * vy < r.rhs - 1e-7) return false;
      }
      return true;
    };
    double best = 1e18;
    auto consider = [&](double vx, double vy) {
      if (feasible(vx, vy)) best = std::min(best, cx * vx + cy * vy);
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      consider(rows[i].rhs / rows[i].a, 0.0);  // x axis intercept
      consider(0.0, rows[i].rhs / rows[i].b);  // y axis intercept
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        const double det = rows[i].a * rows[j].b - rows[j].a * rows[i].b;
        if (std::abs(det) < 1e-12) continue;
        const double vx =
            (rows[i].rhs * rows[j].b - rows[j].rhs * rows[i].b) / det;
        const double vy =
            (rows[i].a * rows[j].rhs - rows[j].a * rows[i].rhs) / det;
        consider(vx, vy);
      }
    }
    EXPECT_NEAR(sol.objective, best, 1e-6) << "trial " << trial;
  }
}

// Property: the reported solution always satisfies every constraint.
TEST(SimplexTest, SolutionsAreAlwaysFeasible) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    LpProblem p;
    std::vector<VarId> vars;
    for (int v = 0; v < 5; ++v) {
      vars.push_back(p.add_variable(rng.uniform(-1.0, 2.0)));
    }
    std::vector<std::vector<double>> coeffs;
    std::vector<double> rhs;
    for (int c = 0; c < 6; ++c) {
      std::vector<Term> terms;
      std::vector<double> row;
      for (const VarId v : vars) {
        const double a = rng.uniform(0.0, 1.5);
        row.push_back(a);
        terms.push_back({v, a});
      }
      const double b = rng.uniform(2.0, 8.0);
      coeffs.push_back(row);
      rhs.push_back(b);
      p.add_constraint(std::move(terms), Relation::LessEq, b);
    }
    const auto sol = solve(p);
    if (!sol.optimal()) continue;  // unbounded cases excluded from check
    for (std::size_t c = 0; c < coeffs.size(); ++c) {
      double lhs = 0.0;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        lhs += coeffs[c][v] * sol.value(vars[v]);
      }
      EXPECT_LE(lhs, rhs[c] + 1e-7);
    }
    for (const VarId v : vars) EXPECT_GE(sol.value(v), -1e-9);
  }
}

TEST(SimplexTest, ManyVariablesWideProblem) {
  // Epigraph minimax with 2000 columns — the shape/scale of the paper's
  // placement LP (many x^a_{ij} columns, few rows).
  LpProblem p;
  const VarId t = p.add_variable(1.0);
  std::vector<VarId> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(p.add_variable(0.0));
  }
  // sum x = 100; for each of 4 groups: group load <= t.
  std::vector<Term> total;
  for (const VarId v : xs) total.push_back({v, 1.0});
  p.add_constraint(std::move(total), Relation::Equal, 100);
  for (int g = 0; g < 4; ++g) {
    std::vector<Term> terms{{t, -1.0}};
    for (std::size_t i = g; i < xs.size(); i += 4) {
      terms.push_back({xs[i], 1.0});
    }
    p.add_constraint(std::move(terms), Relation::LessEq, 0);
  }
  const auto sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  // Best is to spread equally: t = 25.
  EXPECT_NEAR(sol.value(t), 25.0, 1e-6);
}

}  // namespace
}  // namespace bohr::lp

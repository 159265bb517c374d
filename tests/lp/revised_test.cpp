// Differential suite for the sparse revised simplex against the dense
// tableau oracle, plus dual-extraction edge cases, warm starts,
// incremental constraint updates and partial pricing.
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "dense_oracle.h"
#include "lp/basis_lu.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp/sparse.h"

namespace bohr::lp {
namespace {

/// Solves with the revised engine and the dense oracle and checks full
/// agreement: status, iteration count, objective, primal values and
/// duals.
void expect_engines_agree(const LpProblem& p, const char* label) {
  SCOPED_TRACE(label);
  const LpSolution dense = solve_dense(p);
  const LpSolution revised = solve(p);
  ASSERT_EQ(dense.status, revised.status);
  if (!dense.optimal()) return;
  EXPECT_EQ(dense.iterations, revised.iterations);
  EXPECT_NEAR(dense.objective, revised.objective, 1e-9);
  ASSERT_EQ(dense.values.size(), revised.values.size());
  for (std::size_t v = 0; v < dense.values.size(); ++v) {
    EXPECT_NEAR(dense.values[v], revised.values[v], 1e-9) << "var " << v;
  }
  ASSERT_EQ(dense.duals.size(), revised.duals.size());
  for (std::size_t r = 0; r < dense.duals.size(); ++r) {
    EXPECT_NEAR(dense.duals[r], revised.duals[r], 1e-9) << "row " << r;
  }
}

double dual_objective(const LpProblem& p, const LpSolution& sol) {
  double z = 0.0;
  for (std::size_t r = 0; r < p.constraint_count(); ++r) {
    z += sol.duals[r] * p.rows()[r].rhs;
  }
  return z;
}

TEST(RevisedSimplexTest, MatchesDenseOnSmallLp) {
  LpProblem p;
  const VarId x = p.add_variable(-3.0);
  const VarId y = p.add_variable(-5.0);
  p.add_constraint({{x, 1.0}}, Relation::LessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::LessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
  expect_engines_agree(p, "wyndor");
  const LpSolution sol = solve(p);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.value(x), 2.0, 1e-9);
  EXPECT_NEAR(sol.value(y), 6.0, 1e-9);
}

TEST(RevisedSimplexTest, RandomDifferentialSuite) {
  std::mt19937 rng(20180412);
  std::uniform_int_distribution<int> rows_dist(1, 10);
  std::uniform_int_distribution<int> vars_dist(2, 12);
  std::uniform_int_distribution<int> rel_dist(0, 2);
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  std::uniform_real_distribution<double> rhs_dist(-5.0, 5.0);
  std::uniform_real_distribution<double> obj(-2.0, 2.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  int optimal_count = 0;
  int infeasible_count = 0;
  int unbounded_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    LpProblem p;
    const int nv = vars_dist(rng);
    const int nr = rows_dist(rng);
    for (int v = 0; v < nv; ++v) p.add_variable(obj(rng));
    for (int r = 0; r < nr; ++r) {
      std::vector<Term> terms;
      for (int v = 0; v < nv; ++v) {
        if (unif(rng) < 0.6) {
          terms.push_back({static_cast<VarId>(v), coeff(rng)});
        }
      }
      if (terms.empty()) terms.push_back({0, coeff(rng)});
      p.add_constraint(std::move(terms),
                       static_cast<Relation>(rel_dist(rng)), rhs_dist(rng));
    }
    SCOPED_TRACE(trial);
    const LpSolution dense = solve_dense(p);
    expect_engines_agree(p, "random");
    switch (dense.status) {
      case SolveStatus::Optimal:
        ++optimal_count;
        break;
      case SolveStatus::Infeasible:
        ++infeasible_count;
        break;
      case SolveStatus::Unbounded:
        ++unbounded_count;
        break;
      default:
        break;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GT(optimal_count, 20);
  EXPECT_GT(infeasible_count, 10);
  EXPECT_GT(unbounded_count, 10);
}

TEST(RevisedSimplexTest, NegativeRhsDualConvention) {
  // -x - y <= -4 (i.e. x + y >= 4) exercises the rhs-negation path; the
  // dual must be reported w.r.t. the ORIGINAL right-hand side.
  LpProblem p;
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, -1.0}, {y, -1.0}}, Relation::LessEq, -4.0);
  expect_engines_agree(p, "neg-rhs");
  const LpSolution sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.0, 1e-9);
  EXPECT_NEAR(sol.dual(0), -2.0, 1e-9);  // dz*/db: raising b toward 0 relaxes
  EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-9);
}

TEST(RevisedSimplexTest, EqualityRowDuals) {
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(4.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
  p.add_constraint({{y, 1.0}}, Relation::GreaterEq, 1.0);
  expect_engines_agree(p, "equality");
  const LpSolution sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 6.0, 1e-9);
  EXPECT_NEAR(dual_objective(p, sol), sol.objective, 1e-9);
}

TEST(RevisedSimplexTest, RedundantRowKeepsBasicArtificial) {
  // The duplicated equality is redundant: after phase 1 its artificial
  // stays basic at zero (no pivotable column), which both engines must
  // tolerate and report identical duals for.
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::LessEq, 1.5);
  expect_engines_agree(p, "redundant");
  const LpSolution sol = solve(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x) + sol.value(y), 2.0, 1e-9);
}

TEST(RevisedSimplexTest, InfeasibleAndUnboundedAgree) {
  LpProblem infeasible;
  const VarId x = infeasible.add_variable(1.0);
  infeasible.add_constraint({{x, 1.0}}, Relation::LessEq, 1.0);
  infeasible.add_constraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
  expect_engines_agree(infeasible, "infeasible");

  LpProblem unbounded;
  const VarId u = unbounded.add_variable(-1.0);
  unbounded.add_constraint({{u, -1.0}}, Relation::LessEq, 1.0);
  expect_engines_agree(unbounded, "unbounded");
}

/// A small transportation LP: supplies s_i, demands d_j.
LpProblem transport_lp(const std::vector<double>& supply,
                       const std::vector<double>& demand,
                       std::vector<std::vector<VarId>>* x_out,
                       std::vector<std::size_t>* demand_rows = nullptr) {
  LpProblem p;
  const std::size_t ns = supply.size();
  const std::size_t nd = demand.size();
  std::vector<std::vector<VarId>> x(ns, std::vector<VarId>(nd, 0));
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) {
      x[i][j] = p.add_variable(1.0 + static_cast<double>((i * 7 + j * 3) % 5));
    }
  }
  for (std::size_t i = 0; i < ns; ++i) {
    std::vector<Term> row;
    for (std::size_t j = 0; j < nd; ++j) row.push_back({x[i][j], 1.0});
    p.add_constraint(std::move(row), Relation::LessEq, supply[i]);
  }
  for (std::size_t j = 0; j < nd; ++j) {
    std::vector<Term> col;
    for (std::size_t i = 0; i < ns; ++i) col.push_back({x[i][j], 1.0});
    const std::size_t row =
        p.add_constraint(std::move(col), Relation::GreaterEq, demand[j]);
    if (demand_rows != nullptr) demand_rows->push_back(row);
  }
  if (x_out != nullptr) *x_out = std::move(x);
  return p;
}

/// Moves a row's right-hand side and keeps its terms.
void set_rhs(LpProblem& p, std::size_t row, double rhs) {
  p.update_constraint(row, p.rows()[row].terms, rhs);
}

TEST(WarmStartTest, ReusedBasisCutsIterations) {
  std::vector<std::vector<VarId>> x;
  std::vector<std::size_t> demand_rows;
  LpProblem p = transport_lp({10.0, 8.0, 6.0}, {5.0, 7.0, 6.0}, &x,
                             &demand_rows);
  const SimplexOptions opts;
  const LpSolution cold = solve(p, opts);
  ASSERT_TRUE(cold.optimal());
  EXPECT_FALSE(cold.warm_started);
  ASSERT_FALSE(cold.basis.empty());

  // Nudge one demand and re-solve warm: the old basis stays feasible,
  // phase 1 is skipped entirely and the pivot count drops.
  set_rhs(p, demand_rows[1], 6.5);
  const LpSolution warm = solve(p, opts, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);

  // The warm solution must match a cold dense solve of the new problem.
  const LpSolution oracle = solve_dense(p);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(oracle.objective, warm.objective, 1e-9);
  for (std::size_t v = 0; v < oracle.values.size(); ++v) {
    EXPECT_NEAR(oracle.values[v], warm.values[v], 1e-9);
  }
}

TEST(WarmStartTest, InvalidBasisFallsBackCold) {
  std::vector<std::vector<VarId>> x;
  LpProblem p = transport_lp({10.0, 8.0}, {5.0, 7.0}, &x);
  Basis bogus;
  bogus.basic = {0, 0, 0, 0};  // duplicate columns: structurally invalid
  const LpSolution sol = solve(p, SimplexOptions{}, &bogus);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_started);
  const LpSolution oracle = solve_dense(p);
  EXPECT_NEAR(sol.objective, oracle.objective, 1e-9);
}

TEST(WarmStartTest, InfeasibleBasisFallsBackCold) {
  std::vector<std::vector<VarId>> x;
  std::vector<std::size_t> demand_rows;
  LpProblem p = transport_lp({10.0, 8.0}, {5.0, 7.0}, &x, &demand_rows);
  const LpSolution cold = solve(p);
  ASSERT_TRUE(cold.optimal());
  // A demand jump past the old vertex makes the inherited basis primal
  // infeasible; the solver must detect it and cold-start.
  set_rhs(p, demand_rows[0], 18.0);
  const LpSolution warm = solve(p, SimplexOptions{}, &cold.basis);
  const LpSolution oracle = solve_dense(p);
  ASSERT_EQ(warm.status, oracle.status);
  if (oracle.optimal()) {
    EXPECT_NEAR(warm.objective, oracle.objective, 1e-9);
  }
}

TEST(UpdateConstraintTest, PatchedProblemMatchesFreshBuild) {
  LpProblem patched;
  const VarId x = patched.add_variable(-1.0);
  const VarId y = patched.add_variable(-2.0);
  const std::size_t row0 =
      patched.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 10.0);
  patched.add_constraint({{x, 1.0}}, Relation::LessEq, 99.0);
  patched.update_constraint(row0, {{x, 2.0}, {y, 1.0}}, 8.0);
  set_rhs(patched, 1, 3.0);

  LpProblem fresh;
  const VarId fx = fresh.add_variable(-1.0);
  const VarId fy = fresh.add_variable(-2.0);
  fresh.add_constraint({{fx, 2.0}, {fy, 1.0}}, Relation::LessEq, 8.0);
  fresh.add_constraint({{fx, 1.0}}, Relation::LessEq, 3.0);

  const LpSolution a = solve(patched);
  const LpSolution b = solve(fresh);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_DOUBLE_EQ(a.value(x), b.value(fx));
  EXPECT_DOUBLE_EQ(a.value(y), b.value(fy));
}

TEST(PartialPricingTest, AgreesWithFullPricingAndIsDeterministic) {
  // Force candidate-list pricing with a tiny threshold and list; the
  // pivot path may differ from full Dantzig but the optimum must not,
  // and repeated runs must take the identical pivot count.
  std::vector<std::vector<VarId>> x;
  LpProblem p = transport_lp({10.0, 8.0, 6.0, 9.0}, {5.0, 7.0, 6.0, 4.0}, &x);
  SimplexOptions partial;
  partial.partial_pricing_threshold = 1;
  partial.candidate_list_size = 3;
  const LpSolution a = solve(p, partial);
  const LpSolution b = solve(p, partial);
  const LpSolution full = solve(p);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(full.optimal());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_NEAR(a.objective, full.objective, 1e-9);
  for (std::size_t v = 0; v < full.values.size(); ++v) {
    EXPECT_NEAR(a.values[v], full.values[v], 1e-9);
  }
}

TEST(PartialPricingTest, TinyRefactorIntervalStaysExact) {
  std::vector<std::vector<VarId>> x;
  LpProblem p = transport_lp({10.0, 8.0, 6.0}, {5.0, 7.0, 6.0}, &x);
  SimplexOptions churn;
  churn.refactor_interval = 1;  // refactorize after every pivot
  const LpSolution a = solve(p, churn);
  const LpSolution oracle = solve_dense(p);
  ASSERT_TRUE(a.optimal());
  EXPECT_EQ(a.iterations, oracle.iterations);
  EXPECT_NEAR(a.objective, oracle.objective, 1e-9);
}

TEST(PartialPricingTest, EmptyCandidateListIsRejected) {
  // With an empty list the first refill keeps nothing, so the scan found
  // no entering column and the phase stopped at its starting basis: the
  // first LP came back Infeasible and the second Optimal at 0. A list of
  // one solves both.
  LpProblem feasible;
  const VarId a = feasible.add_variable(1.0);
  const VarId b = feasible.add_variable(1.0);
  feasible.add_constraint({{a, 1.0}, {b, 1.0}}, Relation::GreaterEq, 2.0);
  feasible.add_constraint({{a, 1.0}}, Relation::LessEq, 5.0);

  LpProblem maximize;
  const VarId x = maximize.add_variable(-1.0);
  const VarId y = maximize.add_variable(-1.0);
  maximize.add_constraint({{x, 1.0}}, Relation::LessEq, 3.0);
  maximize.add_constraint({{y, 1.0}}, Relation::LessEq, 4.0);

  SimplexOptions partial;
  partial.partial_pricing_threshold = 1;
  partial.candidate_list_size = 0;
  EXPECT_THROW(solve(feasible, partial), ContractViolation);
  EXPECT_THROW(solve(maximize, partial), ContractViolation);

  partial.candidate_list_size = 1;
  const LpSolution f = solve(feasible, partial);
  ASSERT_TRUE(f.optimal());
  EXPECT_NEAR(f.objective, 2.0, 1e-9);
  const LpSolution m = solve(maximize, partial);
  ASSERT_TRUE(m.optimal());
  EXPECT_NEAR(m.objective, -7.0, 1e-9);

  // Full pricing never reads the list, so an empty one is harmless there.
  SimplexOptions full;
  full.candidate_list_size = 0;
  EXPECT_NEAR(solve(maximize, full).objective, -7.0, 1e-9);
}

TEST(PeakBytesTest, RevisedIsSparseDenseIsQuadratic) {
  // A block-diagonal LP with many variables: the revised engine's
  // footprint scales with nonzeros, the tableau with rows x columns.
  LpProblem p;
  constexpr int kBlocks = 120;
  for (int b = 0; b < kBlocks; ++b) {
    const VarId u = p.add_variable(-1.0);
    const VarId v = p.add_variable(-1.0);
    p.add_constraint({{u, 1.0}, {v, 2.0}}, Relation::LessEq, 3.0);
  }
  const LpSolution revised = solve(p);
  const LpSolution dense = solve_dense(p);
  ASSERT_TRUE(revised.optimal());
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(revised.objective, dense.objective, 1e-9);
  EXPECT_GT(revised.peak_bytes, 0u);
  EXPECT_LT(revised.peak_bytes * 4, dense.peak_bytes);
}

TEST(BasisLuTest, FtranBtranRoundTrip) {
  // Random sparse square systems: check B * ftran(b) == b and
  // B^T * btran(c) == c, with and without eta updates.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(trial % 12);
    // Build a CSC matrix whose first m columns form a diagonally
    // dominated (hence nonsingular) basis.
    CscMatrix a;
    a.rows = m;
    a.cols = m;
    a.col_start.assign(m + 1, 0);
    std::vector<std::vector<std::pair<std::int32_t, double>>> cols(m);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        if (r == c) {
          cols[c].emplace_back(static_cast<std::int32_t>(r),
                               3.0 + unif(rng));
        } else if (unif(rng) < 0.3) {
          cols[c].emplace_back(static_cast<std::int32_t>(r), val(rng) * 0.4);
        }
      }
    }
    for (std::size_t c = 0; c < m; ++c) {
      a.col_start[c + 1] = a.col_start[c] + cols[c].size();
      for (const auto& [r, v] : cols[c]) {
        a.row_index.push_back(r);
        a.value.push_back(v);
      }
    }
    std::vector<std::size_t> basis(m);
    for (std::size_t i = 0; i < m; ++i) basis[i] = i;

    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis));
    auto dense_col = [&](std::size_t c) {
      std::vector<double> out(m, 0.0);
      for (std::size_t q = a.col_start[c]; q < a.col_start[c + 1]; ++q) {
        out[a.row_index[q]] = a.value[q];
      }
      return out;
    };
    auto mat_vec = [&](const std::vector<double>& x, bool transpose) {
      std::vector<double> out(m, 0.0);
      for (std::size_t slot = 0; slot < m; ++slot) {
        const auto col = dense_col(basis[slot]);
        for (std::size_t r = 0; r < m; ++r) {
          if (transpose) {
            out[slot] += col[r] * x[r];
          } else {
            out[r] += col[r] * x[slot];
          }
        }
      }
      return out;
    };

    std::vector<double> b(m);
    for (auto& v : b) v = val(rng);
    std::vector<double> xb = b;
    lu.ftran(xb);
    const auto back = mat_vec(xb, false);
    for (std::size_t r = 0; r < m; ++r) EXPECT_NEAR(back[r], b[r], 1e-8);

    std::vector<double> c_vec(m);
    for (auto& v : c_vec) v = val(rng);
    std::vector<double> y = c_vec;
    lu.btran(y);
    const auto back_t = mat_vec(y, true);
    for (std::size_t r = 0; r < m; ++r) {
      EXPECT_NEAR(back_t[r], c_vec[r], 1e-8);
    }
  }
}

TEST(StandardFormTest, MergesDuplicateTermsAndNormalizesRhs) {
  LpProblem p;
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(1.0);
  // Duplicate x terms sum to 3; negative rhs flips the row to >=.
  p.add_constraint({{x, 1.0}, {x, 2.0}, {y, -1.0}}, Relation::LessEq, -2.0);
  const StandardForm sf = standardize(p);
  EXPECT_EQ(sf.rows, 1u);
  EXPECT_EQ(sf.n_struct, 2u);
  EXPECT_EQ(sf.n_slack, 1u);   // flipped to GreaterEq: surplus
  EXPECT_EQ(sf.n_art, 1u);     // ... plus artificial
  EXPECT_TRUE(sf.rhs_negated[0]);
  EXPECT_DOUBLE_EQ(sf.rhs[0], 2.0);
  // Column x holds the merged, negated coefficient.
  ASSERT_EQ(sf.a.col_start[1] - sf.a.col_start[0], 1u);
  EXPECT_DOUBLE_EQ(sf.a.value[sf.a.col_start[x]], -3.0);
}

}  // namespace
}  // namespace bohr::lp

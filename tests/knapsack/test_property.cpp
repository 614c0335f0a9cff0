// Property-based cross-validation of the knapsack solvers on randomized
// instances:
//  * every solver's solution is feasible in BOTH dimensions;
//  * dp2d matches branch-and-bound (both exact) on every instance;
//  * dp1d (the paper's heuristic) is feasible and never better than exact.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "knapsack/bnb.hpp"
#include "knapsack/dp1d.hpp"
#include "knapsack/dp2d.hpp"
#include "knapsack/solver.hpp"
#include "knapsack/value.hpp"

namespace phisched::knapsack {
namespace {

Problem random_problem(Rng& rng, std::size_t n) {
  Problem p;
  p.capacity_mib = rng.uniform_int(1000, 8000);
  p.thread_capacity = 240;
  p.quantum_mib = 50;
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.weight_mib = rng.uniform_int(100, 3500);
    item.threads = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
    item.value = job_value(ValueFunction::kPaperQuadratic, item.threads, 240);
    item.tag = i;
    p.items.push_back(item);
  }
  return p;
}

class SolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverProperty, AllSolversFeasible) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const Problem p = random_problem(rng, 12);
    for (const auto kind : {SolverKind::kDp1D, SolverKind::kDp2D,
                            SolverKind::kBranchAndBound}) {
      const Solution s = make_solver(kind)->solve(p);
      EXPECT_TRUE(feasible(p, s)) << solver_kind_name(kind);
      // picks are strictly ascending and unique
      for (std::size_t i = 1; i < s.picks.size(); ++i) {
        EXPECT_LT(s.picks[i - 1], s.picks[i]);
      }
      // reported aggregates match a recomputation
      const Solution re = materialize(p, s.picks);
      EXPECT_DOUBLE_EQ(re.value, s.value);
      EXPECT_EQ(re.weight_mib, s.weight_mib);
      EXPECT_EQ(re.threads, s.threads);
    }
  }
}

TEST_P(SolverProperty, Dp2DMatchesBranchAndBound) {
  Rng rng(GetParam() ^ 0xABCDEF);
  Dp2DSolver dp2d;
  BranchAndBoundSolver bnb;
  for (int round = 0; round < 10; ++round) {
    const Problem p = random_problem(rng, 14);
    const double v_dp = dp2d.solve(p).value;
    const double v_bb = bnb.solve(p).value;
    EXPECT_NEAR(v_dp, v_bb, 1e-9);
  }
}

TEST_P(SolverProperty, HeuristicNeverBeatsExact) {
  Rng rng(GetParam() ^ 0x123456);
  Dp1DSolver dp1d;
  Dp2DSolver dp2d;
  for (int round = 0; round < 10; ++round) {
    const Problem p = random_problem(rng, 14);
    EXPECT_LE(dp1d.solve(p).value, dp2d.solve(p).value + 1e-9);
  }
}

TEST_P(SolverProperty, HeuristicIsUsuallyClose) {
  Rng rng(GetParam() ^ 0x777);
  Dp1DSolver dp1d;
  Dp2DSolver dp2d;
  double h = 0.0;
  double e = 0.0;
  for (int round = 0; round < 20; ++round) {
    const Problem p = random_problem(rng, 14);
    h += dp1d.solve(p).value;
    e += dp2d.solve(p).value;
  }
  // Across many instances the paper's heuristic captures most of the
  // exact value (it is the production solver, after all).
  EXPECT_GT(h, 0.85 * e);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(SolverFactory, MakesEveryKind) {
  EXPECT_EQ(make_solver(SolverKind::kDp1D)->name(), "dp1d");
  EXPECT_EQ(make_solver(SolverKind::kDp2D)->name(), "dp2d");
  EXPECT_EQ(make_solver(SolverKind::kBranchAndBound)->name(), "bnb");
  EXPECT_STREQ(solver_kind_name(SolverKind::kDp2D), "dp2d");
}

TEST(BranchAndBound, NodeBudgetGuards) {
  BranchAndBoundSolver tiny(/*node_budget=*/3);
  Rng rng(9);
  const Problem p = random_problem(rng, 12);
  EXPECT_THROW((void)tiny.solve(p), InternalError);
}

TEST(Scaling, Dp1DHandlesLargeInstancesQuickly) {
  // The paper's complexity argument: O(n·w) with w = 160 buckets makes the
  // solve near-linear in n; evaluated per run of equal cells it is O(n·k)
  // with k ≤ w+1 runs per row. 1000 items must be instant.
  Rng rng(11);
  const Problem p = random_problem(rng, 1000);
  Dp1DSolver solver;
  const Solution s = solver.solve(p);
  EXPECT_TRUE(feasible(p, s));
  EXPECT_FALSE(s.empty());
}

}  // namespace
}  // namespace phisched::knapsack

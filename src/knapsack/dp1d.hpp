// Paper-faithful 0-1 knapsack: 1-D dynamic program over quantized memory.
//
// Section IV-C: memory is the knapsack weight (quantized to 50 MiB, so
// w = 8 GiB / 50 MiB = 160 buckets) and the DP is the classic V(i, m) =
// max(V(i-1, m), V(i-1, m - m_i) + v_i), complexity O(n·w). The thread
// limit is folded into the value: "if the total number of threads exceeds
// the coprocessor's hardware limit, we make the knapsack value zero" —
// i.e., a take-transition that would push the accumulated thread count of
// that DP cell beyond the budget contributes zero value and therefore
// loses to any feasible alternative. This is a heuristic (thread totals
// are not part of the DP state), so the result can be value-suboptimal,
// but the reconstructed set is always feasible in both dimensions: zero-
// valued (infeasible) cells are never reconstructed because the skip
// branch dominates them.
//
// The recurrence is evaluated once per run of equal cells, not once per
// bucket. A thread-feasible set holds only a few of the paper's jobs, so a
// row V(i, ·) is a step function with a handful of steps, and row i can
// change only where row i-1 does at m or at m - m_i. Merging those two
// breakpoint lists and applying the cell rule once per merged segment
// gives every cell, and so the packed set, bit for bit as the per-bucket
// loop does, at O(n·k) for k ≤ w+1 runs per row. Take decisions are kept
// as bucket intervals per item for the reconstruction. When rows are
// dense (no thread rule, unrelated values) k approaches w and the
// per-segment bookkeeping makes this slower than the per-bucket loop
// (bench_knapsack's BM_Dp1DDense); no shipped configuration gets there.
#pragma once

#include "knapsack/solver.hpp"

namespace phisched::knapsack {

class Dp1DSolver final : public Solver {
 public:
  [[nodiscard]] Solution solve(const Problem& problem) const override;
  [[nodiscard]] std::string name() const override { return "dp1d"; }
};

}  // namespace phisched::knapsack

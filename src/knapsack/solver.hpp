// Solver interface and factory.
#pragma once

#include <memory>
#include <string>

#include "knapsack/item.hpp"

namespace phisched::knapsack {

class Solver {
 public:
  virtual ~Solver() = default;

  /// Packs a subset of problem.items maximizing total value subject to the
  /// memory capacity; how strictly the thread budget is honoured depends
  /// on the solver (see the concrete classes). Solutions are always
  /// memory-feasible.
  [[nodiscard]] virtual Solution solve(const Problem& problem) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

enum class SolverKind {
  /// The paper's formulation: 1-D dynamic program over quantized memory;
  /// sets that exceed the thread budget get value zero (a heuristic — the
  /// returned set is always memory- and thread-feasible, but may be
  /// value-suboptimal). The same recurrence, evaluated once per run of
  /// equal cells of each row rather than once per bucket.
  kDp1D,
  /// Exact 2-D dynamic program over (memory, thread) buckets.
  kDp2D,
  /// Exact branch-and-bound with a fractional-relaxation bound; intended
  /// as a reference for testing (exponential worst case).
  kBranchAndBound,
  /// O(n log n) value/weight density heuristic (ablation baseline).
  kGreedyDensity,
};

[[nodiscard]] const char* solver_kind_name(SolverKind kind);
/// Inverse of solver_kind_name ("dp1d" | "dp2d" | "bnb" | "greedy");
/// throws std::invalid_argument on anything else.
[[nodiscard]] SolverKind solver_kind_from_name(const std::string& name);
[[nodiscard]] std::unique_ptr<Solver> make_solver(SolverKind kind);

}  // namespace phisched::knapsack

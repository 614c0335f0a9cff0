// Microbenchmarks of the knapsack solvers (google-benchmark).
//
// Validates the paper's complexity claim (Section IV-C): the 1-D DP is
// O(n·w), "nearly linear with the number of jobs" — here capacity
// 7,680 MiB on the 50 MiB grid gives w = 153 buckets. The solver keeps
// each DP row as runs of equal cells, so it costs O(n·k) with k ≤ w+1
// runs per row. BM_Dp1D draws 30–240 threads independently of memory,
// which leaves ≈30 runs per row (the scheduler's Table I jobs leave ≈3).
// BM_Dp1DDense is the worst case: with no thread rule and random values
// k nears w, and the per-bucket loop would be faster. BM_Dp2D and
// BM_BranchAndBound show what the exact solvers cost by comparison.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "knapsack/bnb.hpp"
#include "knapsack/dp1d.hpp"
#include "knapsack/dp2d.hpp"
#include "knapsack/value.hpp"

namespace {

using namespace phisched;
using namespace phisched::knapsack;

Problem make_problem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.capacity_mib = 7680;
  p.thread_capacity = 240;
  p.quantum_mib = 50;
  p.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.weight_mib = rng.uniform_int(300, 3400);
    item.threads = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
    item.value = job_value(ValueFunction::kPaperQuadratic, item.threads, 240);
    item.tag = i;
    p.items.push_back(item);
  }
  return p;
}

/// The thread budget covers every item and values are random, so the
/// thread rule never fires and DP rows have many runs.
Problem make_dense_problem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.capacity_mib = 7680;
  p.quantum_mib = 50;
  p.thread_capacity = 0;
  p.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.weight_mib = rng.uniform_int(300, 3400);
    item.threads = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
    item.value = rng.uniform_real(0.0, 1.0);
    item.tag = i;
    p.thread_capacity += item.threads;
    p.items.push_back(item);
  }
  return p;
}

void BM_Dp1D(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  Dp1DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dp1D)->RangeMultiplier(2)->Range(16, 2048)->Complexity(
    benchmark::oN);

void BM_Dp1DDense(benchmark::State& state) {
  const Problem p =
      make_dense_problem(static_cast<std::size_t>(state.range(0)), 42);
  Dp1DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dp1DDense)->RangeMultiplier(2)->Range(16, 2048)->Complexity(
    benchmark::oN);

void BM_Dp2D(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  Dp2DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dp2D)->RangeMultiplier(2)->Range(16, 256)->Complexity(
    benchmark::oN);

void BM_BranchAndBound(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  BranchAndBoundSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_BranchAndBound)->DenseRange(8, 24, 4);

void BM_ValueFunction(benchmark::State& state) {
  ThreadCount t = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        job_value(ValueFunction::kPaperQuadratic, t, 240));
    t = t % 240 + 30;
  }
}
BENCHMARK(BM_ValueFunction);

}  // namespace

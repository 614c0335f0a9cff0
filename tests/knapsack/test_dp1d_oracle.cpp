// Differential oracle for the paper's 1-D knapsack DP.
//
// Dp1DSolver evaluates the recurrence once per run of equal cells. The
// reference below is the plain dense form: one cell per (item, bucket)
// and an n × (w+1) take matrix. Both apply the same cell rule in the same
// order, so on every seeded problem their picks, value, weight and
// threads must be identical — not merely equally good.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/quantize.hpp"
#include "common/rng.hpp"
#include "knapsack/dp1d.hpp"
#include "knapsack/value.hpp"

namespace phisched::knapsack {
namespace {

Solution dense_dp1d(const Problem& problem) {
  struct Cell {
    double value = 0.0;
    ThreadCount threads = 0;
  };
  const std::size_t n = problem.items.size();
  const auto w = static_cast<std::size_t>(
      bucket_count(problem.capacity_mib, problem.quantum_mib));
  if (n == 0 || w == 0) return {};

  std::vector<std::size_t> wb(n);
  for (std::size_t i = 0; i < n; ++i) {
    wb[i] = static_cast<std::size_t>(
        quantize_up(problem.items[i].weight_mib, problem.quantum_mib) /
        problem.quantum_mib);
  }

  std::vector<Cell> prev(w + 1);
  std::vector<Cell> curr(w + 1);
  std::vector<std::uint8_t> took(n * (w + 1), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = problem.items[i];
    for (std::size_t m = 0; m <= w; ++m) {
      Cell best = prev[m];
      bool take = false;
      if (wb[i] <= m) {
        const Cell& base = prev[m - wb[i]];
        Cell cand;
        cand.threads = base.threads + item.threads;
        cand.value = cand.threads > problem.thread_capacity
                         ? 0.0
                         : base.value + item.value;
        if (cand.value > best.value) {
          best = cand;
          take = true;
        }
      }
      curr[m] = best;
      took[i * (w + 1) + m] = take ? 1 : 0;
    }
    std::swap(prev, curr);
  }

  std::vector<std::size_t> picks;
  std::size_t m = w;
  for (std::size_t i = n; i-- > 0;) {
    if (took[i * (w + 1) + m] != 0) {
      picks.push_back(i);
      m -= wb[i];
    }
  }
  return materialize(problem, std::move(picks));
}

void expect_identical(const Problem& p) {
  const Solution expected = dense_dp1d(p);
  const Solution got = Dp1DSolver().solve(p);
  EXPECT_EQ(got.picks, expected.picks);
  EXPECT_EQ(got.value, expected.value);
  EXPECT_EQ(got.weight_mib, expected.weight_mib);
  EXPECT_EQ(got.threads, expected.threads);
}

Item item(MiB weight, ThreadCount threads, double value) {
  Item it;
  it.weight_mib = weight;
  it.threads = threads;
  it.value = value;
  return it;
}

/// Table I's thread widths (60/180/240) valued by the paper's Eq. 1.
Problem paper_problem(Rng& rng, std::size_t n, ThreadCount budget) {
  Problem p;
  p.capacity_mib = rng.uniform_int(1000, 11000);
  p.thread_capacity = budget;
  constexpr ThreadCount kWidths[] = {60, 180, 240};
  for (std::size_t i = 0; i < n; ++i) {
    const ThreadCount t = kWidths[rng.index(3)];
    p.items.push_back(item(rng.uniform_int(100, 3500), t,
                           job_value(ValueFunction::kPaperQuadratic, t, 240)));
  }
  return p;
}

TEST(Dp1DOracle, PaperValuesUnderTheHardwareBudget) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    expect_identical(paper_problem(rng, 1 + rng.index(200), 240));
  }
}

TEST(Dp1DOracle, PaperValuesUnderAnOvercommitBudget) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    expect_identical(paper_problem(rng, 1 + rng.index(200), 360));
  }
}

TEST(Dp1DOracle, UnboundedBudgetWithRandomValues) {
  // No thread rule and unrelated values: rows carry many runs.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Problem p;
    p.capacity_mib = rng.uniform_int(500, 8000);
    ThreadCount total = 0;
    const std::size_t n = 1 + rng.index(120);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<ThreadCount>(rng.uniform_int(1, 240));
      total += t;
      p.items.push_back(item(rng.uniform_int(1, 3000), t,
                             rng.uniform_real(0.0, 1.0)));
    }
    p.thread_capacity = total;
    expect_identical(p);
  }
}

TEST(Dp1DOracle, QuantaOfOneFiftyAndHundredMiB) {
  for (const MiB quantum : {MiB{1}, MiB{50}, MiB{100}}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      Rng rng(seed);
      Problem p;
      p.quantum_mib = quantum;
      p.capacity_mib = rng.uniform_int(0, 8000);
      p.thread_capacity = 240;
      const std::size_t n = 1 + rng.index(40);
      for (std::size_t i = 0; i < n; ++i) {
        const auto t = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
        p.items.push_back(item(rng.uniform_int(1, 3000), t,
                               job_value(ValueFunction::kPaperQuadratic, t, 240)));
      }
      expect_identical(p);
    }
  }
}

TEST(Dp1DOracle, CapacityBelowEveryItem) {
  Rng rng(3);
  Problem p;
  p.capacity_mib = 500;
  for (int i = 0; i < 20; ++i) {
    p.items.push_back(item(rng.uniform_int(501, 3000), 60, 0.94));
  }
  expect_identical(p);
  EXPECT_TRUE(Dp1DSolver().solve(p).empty());
}

TEST(Dp1DOracle, ItemsHeavierThanTheCapacityAmongLightOnes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Problem p;
    p.capacity_mib = 2000;
    const std::size_t n = 1 + rng.index(60);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<ThreadCount>(60 * rng.uniform_int(1, 4));
      p.items.push_back(item(rng.uniform_int(50, 6000), t,
                             job_value(ValueFunction::kPaperQuadratic, t, 240)));
    }
    expect_identical(p);
  }
}

TEST(Dp1DOracle, DuplicateItemsBreakTiesTheSameWay) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::vector<Item> shapes = {item(1000, 60, 0.94),
                                      item(2000, 180, 0.44),
                                      item(1500, 60, 0.94), item(500, 240, 0.0)};
    Problem p;
    p.capacity_mib = rng.uniform_int(1000, 8000);
    p.thread_capacity = seed % 2 == 0 ? 240 : 100000;
    const std::size_t n = 1 + rng.index(60);
    for (std::size_t i = 0; i < n; ++i) {
      p.items.push_back(shapes[rng.index(shapes.size())]);
    }
    expect_identical(p);
  }
}

TEST(Dp1DOracle, SingleBucket) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Problem p;
    p.capacity_mib = rng.uniform_int(50, 99);  // one 50 MiB bucket
    const std::size_t n = 1 + rng.index(10);
    for (std::size_t i = 0; i < n; ++i) {
      p.items.push_back(item(rng.uniform_int(1, 120), 60,
                             rng.uniform_real(0.0, 1.0)));
    }
    expect_identical(p);
  }
}

}  // namespace
}  // namespace phisched::knapsack

#include "knapsack/dp1d.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/check.hpp"
#include "common/quantize.hpp"

namespace phisched::knapsack {

namespace {

/// A run of equal DP cells: buckets [start, next run's start).
struct Run {
  std::size_t start = 0;
  double value = 0.0;
  ThreadCount threads = 0;
};

/// Buckets [lo, hi) where an item's take-transition won.
struct TakeSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

}  // namespace

Solution Dp1DSolver::solve(const Problem& problem) const {
  PHISCHED_REQUIRE(problem.capacity_mib >= 0, "dp1d: negative capacity");
  PHISCHED_REQUIRE(problem.quantum_mib > 0, "dp1d: quantum must be positive");

  const std::size_t n = problem.items.size();
  const auto w = static_cast<std::size_t>(
      bucket_count(problem.capacity_mib, problem.quantum_mib));
  if (n == 0 || w == 0) return {};

  // Item weights in buckets, rounded up (a job must fully fit).
  std::vector<std::size_t> wb(n);
  for (std::size_t i = 0; i < n; ++i) {
    PHISCHED_REQUIRE(problem.items[i].weight_mib > 0, "dp1d: zero-weight item");
    wb[i] = static_cast<std::size_t>(
        quantize_up(problem.items[i].weight_mib, problem.quantum_mib) /
        problem.quantum_mib);
  }

  // A row V(i, m), m = 0..w, is a step function, kept as its runs of equal
  // cells followed by a sentinel run starting at w + 1. Row i can change
  // only where row i-1 does at m or at m - wb[i], so the recurrence is
  // evaluated once per segment of the two merged breakpoint lists rather
  // than once per bucket. Each evaluation is the dense cell rule verbatim
  // (same additions, same comparison), so every cell, every take decision
  // and the reconstructed set are bit-identical to the dense DP's.
  const Run sentinel{w + 1, 0.0, 0};
  // At most w + 1 runs, the sentinel and one scratch slot.
  std::vector<Run> prev(w + 3);
  std::vector<Run> curr(w + 3);
  // The take-transition's row V(i-1, m - wb[i]) + item i, per run of
  // V(i-1, ·) shifted by wb[i].
  std::vector<Run> cand(w + 3);
  prev[0] = Run{};
  prev[1] = sentinel;
  // takes[take_begin[i] .. take_begin[i+1]): item i's take spans, sorted.
  // `spans` counts the ones in use; slot spans is scratch.
  std::vector<TakeSpan> takes;
  std::size_t spans = 0;
  std::vector<std::size_t> take_begin(n + 1, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = problem.items[i];
    const std::size_t shift = wb[i];
    // An item heavier than the capacity leaves the row unchanged.
    if (shift <= w) {
      const Run* p = prev.data();
      Run* out = curr.data();
      Run* c = cand.data();
      std::size_t r = 0;
      for (; p[r].start + shift <= w; ++r) {
        c[r].start = p[r].start + shift;
        c[r].threads = p[r].threads + item.threads;
        // The paper's thread rule: exceeding the hardware thread budget
        // zeroes the knapsack value, so such a take never wins.
        c[r].value = c[r].threads > problem.thread_capacity
                         ? 0.0
                         : p[r].value + item.value;
      }
      c[r] = sentinel;

      // Below the item's weight there is no take-transition: copy the
      // runs that start there. `a` ends on the run holding V(i-1, shift).
      std::size_t a = 0;
      while (p[a + 1].start <= shift) {
        out[a] = p[a];
        ++a;
      }
      out[a] = p[a];
      std::size_t len = a + (p[a].start < shift ? 1 : 0);

      // Each of the row's at most w + 1 segments opens at most one take
      // span, and the loop writes one scratch slot past the last.
      if (takes.size() < spans + w + 2) {
        takes.resize(std::max(spans + w + 2, 2 * takes.size()));
      }
      TakeSpan* t = takes.data();
      // The loop selects by indexing with its decisions instead of
      // branching on them: they follow the data, not a pattern, and a
      // mispredicted branch costs more than evaluating a segment.
      std::size_t took = 0;  // the previous segment's take decision
      std::size_t span_lo = 0;
      double last_value = out[len - 1].value;
      ThreadCount last_threads = out[len - 1].threads;
      std::size_t b = 0;  // the run of `cand` holding bucket m
      for (std::size_t m = shift; m <= w;) {
        const std::size_t take = c[b].value > p[a].value ? 1 : 0;
        const Run* const from[2] = {p + a, c + b};
        Run cell = *from[take];
        const std::size_t a_end = p[a + 1].start;
        const std::size_t b_end = c[b + 1].start;
        const std::size_t next = std::min(a_end, b_end);
        PHISCHED_DCHECK(next > m, "dp1d: merged segment does not advance");

        // A take opens a span or extends the previous segment's; a skip
        // writes only the scratch slot.
        const std::size_t opens_span = take & (took ^ 1);
        spans += opens_span;
        const std::size_t lo[2] = {span_lo, m};
        span_lo = lo[opens_span];
        t[spans - take] = TakeSpan{span_lo, next};
        took = take;

        // Written unconditionally; kept only when it opens a new run.
        const std::size_t opens_run =
            static_cast<std::size_t>(cell.value != last_value) |
            static_cast<std::size_t>(cell.threads != last_threads);
        last_value = cell.value;
        last_threads = cell.threads;
        cell.start = m;
        out[len] = cell;
        len += opens_run;
        a += a_end == next ? 1 : 0;
        b += b_end == next ? 1 : 0;
        m = next;
      }
      out[len] = sentinel;
      std::swap(prev, curr);
    }
    take_begin[i + 1] = spans;
  }

  // Reconstruct from the full-capacity cell.
  std::vector<std::size_t> picks;
  std::size_t m = w;
  for (std::size_t i = n; i-- > 0;) {
    const auto first = takes.begin() + static_cast<std::ptrdiff_t>(take_begin[i]);
    const auto last = takes.begin() + static_cast<std::ptrdiff_t>(take_begin[i + 1]);
    const auto after = std::upper_bound(
        first, last, m,
        [](std::size_t bucket, const TakeSpan& s) { return bucket < s.lo; });
    if (after != first && m < std::prev(after)->hi) {
      picks.push_back(i);
      m -= wb[i];
    }
  }
  Solution s = materialize(problem, std::move(picks));
  PHISCHED_CHECK(feasible(problem, s), "dp1d produced an infeasible solution");
  return s;
}

}  // namespace phisched::knapsack

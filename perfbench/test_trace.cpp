// Tests for the benchmark's helpers (trace.hpp).
#include <gtest/gtest.h>

#include "trace.hpp"

namespace perfbench {
namespace {

Span span(const char* name, double start, double end, int parent) {
  return Span{name, start, end, parent, 0};
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // step [0,10] > cycle [1,7] > assign [2,4]; a sibling child [8,9].
  const std::vector<Span> spans = {
      span("step", 0.0, 10.0, -1), span("cycle", 1.0, 7.0, 0),
      span("assign", 2.0, 4.0, 1), span("other", 8.0, 9.0, 0)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 6.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, CountsOverlappingChildrenOnceAndClipsToParent) {
  const std::vector<Span> spans = {span("p", 0.0, 10.0, -1),
                                   span("a", 2.0, 6.0, 0),
                                   span("b", 4.0, 8.0, 0),
                                   span("c", 9.0, 12.0, 0)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 6.0 - 1.0);
}

TEST(SelfTime, TracerRecordsNestingAndCancel) {
  Tracer t;
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  t.end(inner);
  t.begin("dropped");
  t.cancel();
  t.end(outer);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, outer);
  const std::vector<double> self = self_times(t.spans());
  EXPECT_GE(self[0], 0.0);
  EXPECT_LE(self[0] + (t.spans()[1].end_s - t.spans()[1].start_s),
            t.spans()[0].end_s - t.spans()[0].start_s + 1e-12);
}

TEST(TailPercentile, PicksHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile_rank(1000, 99.0), 99.0);  // 10 beyond p99
  EXPECT_EQ(tail_percentile_rank(999, 99.0), 95.0);   // 9.99 beyond p99
  EXPECT_EQ(tail_percentile_rank(200, 99.0), 95.0);
  EXPECT_EQ(tail_percentile_rank(199, 99.0), 90.0);
  EXPECT_EQ(tail_percentile_rank(100, 99.0), 90.0);
  EXPECT_EQ(tail_percentile_rank(40, 99.0), 75.0);
  EXPECT_EQ(tail_percentile_rank(39, 99.0), 50.0);
  EXPECT_EQ(tail_percentile_rank(5000, 95.0), 95.0);  // never above wanted
}

TEST(TailPercentile, InterpolatesLinearly) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(100 - i));
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  // 101 samples: p90 has 10.1 beyond it, p95 only 5.05.
  EXPECT_DOUBLE_EQ(tail_percentile(v, 99.0), 90.0);
}

TEST(CycleStep, ClockOnThePeriod) {
  EXPECT_TRUE(is_cycle_step(0.0, 5.0));
  EXPECT_TRUE(is_cycle_step(5.0, 5.0));
  EXPECT_TRUE(is_cycle_step(8290.0, 5.0));
  EXPECT_FALSE(is_cycle_step(5.5, 5.0));
  EXPECT_FALSE(is_cycle_step(12.5, 5.0));
  EXPECT_FALSE(is_cycle_step(10.000000001, 5.0));
}

TEST(Quartering, LinearHostTimeGivesOne) {
  Stamps stamps;
  for (int i = 0; i <= 40; ++i) stamps.emplace_back(10.0 * i, 0.5 * i);
  EXPECT_NEAR(late_slowdown(quarters(stamps, 400.0)), 1.0, 1e-12);
}

TEST(Quartering, GrowingHostCostShowsInTheLastQuarter) {
  // Host cost per simulated second rises linearly: h(t) = t^2 / 2.
  Stamps stamps;
  for (int i = 0; i <= 100; ++i) {
    const double t = static_cast<double>(i);
    stamps.emplace_back(t, t * t / 2.0);
  }
  const Quarters q = quarters(stamps, 100.0);
  EXPECT_NEAR(q.first, 25.0 * 25.0 / 2.0, 1e-9);
  EXPECT_NEAR(q.last, (100.0 * 100.0 - 75.0 * 75.0) / 2.0, 1e-9);
  EXPECT_NEAR(late_slowdown(q), 7.0, 1e-9);
}

TEST(Quartering, InterpolatesBetweenSparseStamps) {
  const Stamps stamps = {{0.0, 1.0}, {100.0, 3.0}};
  EXPECT_DOUBLE_EQ(host_at(stamps, 25.0), 1.5);
  EXPECT_DOUBLE_EQ(host_at(stamps, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(host_at(stamps, 250.0), 3.0);
  const std::vector<double> w = window_host_ms(stamps, 60.0, 100.0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1200.0, 1e-9);
  EXPECT_NEAR(w[1], 800.0, 1e-9);
}

TEST(Quartering, EmptyFirstQuarterIsZeroNotInfinite) {
  const Stamps stamps = {{0.0, 0.0}, {50.0, 0.0}, {100.0, 1.0}};
  EXPECT_EQ(late_slowdown(quarters(stamps, 100.0)), 0.0);
}

}  // namespace
}  // namespace perfbench

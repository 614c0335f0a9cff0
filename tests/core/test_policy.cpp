#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <map>

namespace phisched::core {
namespace {

PendingJobView job(JobId id, MiB mem, ThreadCount threads) {
  return PendingJobView{id, mem, threads};
}

DeviceView device(NodeId node, DeviceId d, MiB free,
                  ThreadCount budget = 240) {
  DeviceView v;
  v.addr = DeviceAddress{node, d};
  v.free_memory_mib = free;
  v.thread_budget = budget;
  v.hw_threads = 240;
  return v;
}

/// Total declared memory assigned per device; also checks uniqueness.
std::map<DeviceAddress, MiB> load_by_device(
    const std::vector<Assignment>& assignments,
    const std::vector<PendingJobView>& pending) {
  std::map<DeviceAddress, MiB> load;
  std::map<JobId, int> seen;
  for (const auto& a : assignments) {
    seen[a.job] += 1;
    EXPECT_EQ(seen[a.job], 1) << "job assigned twice";
    const auto it = std::find_if(pending.begin(), pending.end(),
                                 [&](const auto& j) { return j.id == a.job; });
    if (it == pending.end()) {
      ADD_FAILURE() << "assignment references unknown job " << a.job;
      continue;
    }
    load[a.device] += it->mem_req_mib;
  }
  return load;
}

TEST(KnapsackPolicy, PacksWithinMemoryAndThreads) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {
      job(1, 2000, 120), job(2, 2000, 120), job(3, 2000, 120),
      job(4, 2000, 120)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680)};
  const auto assignments = policy->assign(pending, devices);
  // Threads cap at 240 → exactly 2 of the 120-thread jobs.
  EXPECT_EQ(assignments.size(), 2u);
  const auto load = load_by_device(assignments, pending);
  EXPECT_LE(load.at(DeviceAddress{0, 0}), 7680);
}

TEST(KnapsackPolicy, GreedyOverDevices) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {
      job(1, 3000, 60), job(2, 3000, 60), job(3, 3000, 60), job(4, 3000, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680),
                                           device(1, 0, 7680)};
  const auto assignments = policy->assign(pending, devices);
  EXPECT_EQ(assignments.size(), 4u);
  const auto load = load_by_device(assignments, pending);
  EXPECT_EQ(load.size(), 2u);  // both devices used (2 jobs each by memory)
}

TEST(KnapsackPolicy, PrefersNarrowJobs) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {
      job(1, 1000, 240),  // wide
      job(2, 1000, 60), job(3, 1000, 60), job(4, 1000, 60), job(5, 1000, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 4000)};
  const auto assignments = policy->assign(pending, devices);
  // Four narrow jobs (240 threads total) outvalue anything with the wide.
  EXPECT_EQ(assignments.size(), 4u);
  for (const auto& a : assignments) EXPECT_NE(a.job, 1u);
}

TEST(KnapsackPolicy, RespectsReducedThreadBudget) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {job(1, 1000, 120),
                                               job(2, 1000, 120)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680, /*budget=*/120)};
  const auto assignments = policy->assign(pending, devices);
  EXPECT_EQ(assignments.size(), 1u);
}

TEST(KnapsackPolicy, SkipsDevicesBelowQuantum) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {job(1, 40, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 40)};
  EXPECT_TRUE(policy->assign(pending, devices).empty());
}

TEST(KnapsackPolicy, CardsNoPendingJobFitsGetNothingAndChangeNothing) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {
      job(1, 1000, 60), job(2, 2000, 120), job(3, 1500, 60),
      job(4, 3000, 180), job(5, 1000, 120)};
  DeviceView narrow_budget = device(1, 0, 7680, /*budget=*/59);
  DeviceView narrow_card = device(2, 0, 7680);
  narrow_card.hw_threads = 59;
  const std::vector<DeviceView> fitting = {device(3, 0, 4000),
                                           device(4, 0, 7680)};
  std::vector<DeviceView> devices = {device(0, 0, 950), narrow_budget,
                                     narrow_card};
  devices.insert(devices.end(), fitting.begin(), fitting.end());

  const auto with_skipped = policy->assign(pending, devices);
  const auto without = policy->assign(pending, fitting);
  ASSERT_EQ(with_skipped.size(), without.size());
  for (std::size_t k = 0; k < without.size(); ++k) {
    EXPECT_EQ(with_skipped[k].job, without[k].job);
    EXPECT_EQ(with_skipped[k].device, without[k].device);
  }
  const auto load = load_by_device(with_skipped, pending);
  EXPECT_EQ(load.count(DeviceAddress{0, 0}), 0u);
  EXPECT_EQ(load.count(DeviceAddress{1, 0}), 0u);
  EXPECT_EQ(load.count(DeviceAddress{2, 0}), 0u);
  // The cards after the skipped ones are still filled.
  EXPECT_EQ(load.count(DeviceAddress{3, 0}), 1u);
  EXPECT_EQ(load.count(DeviceAddress{4, 0}), 1u);
}

TEST(KnapsackPolicy, CardExactlyAtTheSmallestRequestIsFilled) {
  auto policy = make_knapsack_policy({});
  const std::vector<PendingJobView> pending = {job(1, 2000, 120),
                                               job(2, 1000, 60)};
  DeviceView exact = device(0, 0, 1000, /*budget=*/60);
  exact.hw_threads = 60;
  const auto assignments = policy->assign(pending, {exact});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job, 2u);
}

TEST(KnapsackPolicy, MaxCandidatesBoundsTheWindow) {
  KnapsackPolicyConfig config;
  config.max_candidates = 2;
  auto policy = make_knapsack_policy(config);
  std::vector<PendingJobView> pending;
  for (JobId i = 0; i < 10; ++i) pending.push_back(job(i, 1000, 60));
  const std::vector<DeviceView> devices = {device(0, 0, 7680)};
  const auto assignments = policy->assign(pending, devices);
  // Only the FIFO prefix of 2 was considered.
  EXPECT_EQ(assignments.size(), 2u);
  for (const auto& a : assignments) EXPECT_LT(a.job, 2u);
}

TEST(KnapsackPolicy, NameReflectsConfiguration) {
  EXPECT_EQ(make_knapsack_policy({})->name(), "knapsack/dp1d/paper-quadratic");
  KnapsackPolicyConfig config;
  config.solver = knapsack::SolverKind::kDp2D;
  config.value_function = knapsack::ValueFunction::kUnit;
  EXPECT_EQ(make_knapsack_policy(config)->name(), "knapsack/dp2d/unit");
}

TEST(FirstFitPolicy, TakesFirstDeviceWithRoom) {
  auto policy = make_first_fit_policy();
  const std::vector<PendingJobView> pending = {job(1, 5000, 60),
                                               job(2, 5000, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680),
                                           device(1, 0, 7680)};
  const auto assignments = policy->assign(pending, devices);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].device, (DeviceAddress{0, 0}));
  EXPECT_EQ(assignments[1].device, (DeviceAddress{1, 0}));  // 0 is full
}

TEST(BestFitPolicy, PicksTightestDevice) {
  auto policy = make_best_fit_policy();
  const std::vector<PendingJobView> pending = {job(1, 1000, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680),
                                           device(1, 0, 1200)};
  const auto assignments = policy->assign(pending, devices);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].device, (DeviceAddress{1, 0}));
}

TEST(RandomPolicy, OnlyAssignsWhereItFits) {
  auto policy = make_random_policy(Rng(3));
  const std::vector<PendingJobView> pending = {
      job(1, 5000, 60), job(2, 5000, 60), job(3, 5000, 60)};
  const std::vector<DeviceView> devices = {device(0, 0, 7680),
                                           device(1, 0, 7680)};
  const auto assignments = policy->assign(pending, devices);
  EXPECT_EQ(assignments.size(), 2u);  // third job fits nowhere
  const auto load = load_by_device(assignments, pending);
  for (const auto& [addr, mem] : load) EXPECT_LE(mem, 7680);
}

TEST(GreedyPolicies, NoDevicesMeansNoAssignments) {
  const std::vector<PendingJobView> pending = {job(1, 100, 60)};
  EXPECT_TRUE(make_first_fit_policy()->assign(pending, {}).empty());
  EXPECT_TRUE(make_best_fit_policy()->assign(pending, {}).empty());
  EXPECT_TRUE(make_knapsack_policy({})->assign(pending, {}).empty());
}

TEST(GreedyPolicies, Names) {
  EXPECT_EQ(make_first_fit_policy()->name(), "first-fit");
  EXPECT_EQ(make_best_fit_policy()->name(), "best-fit");
  EXPECT_EQ(make_random_policy(Rng(1))->name(), "random");
}

}  // namespace
}  // namespace phisched::core

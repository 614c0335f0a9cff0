#include "condor/negotiator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "condor/ads.hpp"

namespace phisched::condor {
namespace {

class NegotiatorTest : public ::testing::Test {
 protected:
  NegotiatorTest() : schedd_(sim_) {}

  void add_machine(NodeId node, std::int64_t free_mem,
                   std::int64_t free_slots) {
    machine_mem_[node] = free_mem;
    machine_slots_[node] = free_slots;
    collector_.advertise(node, [this, node] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(node));
      ad.insert_integer(kAttrPhiFreeMemory, machine_mem_[node]);
      ad.insert_integer(kAttrFreeSlots, machine_slots_[node]);
      ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
      return std::make_shared<const classad::ClassAd>(std::move(ad));
    });
  }

  void submit_job(JobId id, MiB mem, const std::string& reqs) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = mem;
    spec.threads_req = 60;
    schedd_.submit(id, make_job_ad(spec, reqs));
  }

  Negotiator make(NegotiatorConfig config = {},
                  Negotiator::DispatchFn dispatch = nullptr) {
    if (dispatch == nullptr) {
      dispatch = [this](JobId job, NodeId node) {
        dispatched_.emplace_back(job, node);
        return DispatchResult::kAccepted;
      };
    }
    return Negotiator(sim_, schedd_, collector_, std::move(dispatch), config,
                      Rng(5));
  }

  Simulator sim_;
  Schedd schedd_;
  Collector collector_;
  std::map<NodeId, std::int64_t> machine_mem_;
  std::map<NodeId, std::int64_t> machine_slots_;
  std::vector<std::pair<JobId, NodeId>> dispatched_;
};

TEST_F(NegotiatorTest, MatchesJobToOnlyFittingMachine) {
  add_machine(0, 100, 4);
  add_machine(1, 5000, 4);
  submit_job(1, 2000, sharing_requirements());
  NegotiatorConfig config;
  auto negotiator = make(config);
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0], (std::pair<JobId, NodeId>{1, 1}));
  EXPECT_EQ(schedd_.record(1).state, JobState::kMatched);
  EXPECT_EQ(negotiator.stats().matches, 1u);
}

TEST_F(NegotiatorTest, FifoOrderRespected) {
  add_machine(0, 10000, 1);  // one slot: only the first job this cycle
  submit_job(10, 100, sharing_requirements());
  submit_job(11, 100, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].first, 10u);
}

TEST_F(NegotiatorTest, SlotDeductionWithinCycle) {
  add_machine(0, 10000, 2);
  for (JobId id = 0; id < 5; ++id) submit_job(id, 100, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  // Only 2 slots advertised → 2 matches this cycle even though dispatch
  // always accepts.
  EXPECT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(NegotiatorTest, CustomResourceStaleWithinCycleByDefault) {
  // Vanilla Condor does not deduct custom attributes: both jobs match the
  // same advertised memory within one cycle.
  add_machine(0, 2000, 8);
  submit_job(1, 1500, sharing_requirements());
  submit_job(2, 1500, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 2u);
}

TEST_F(NegotiatorTest, CustomResourceDeductionOptIn) {
  add_machine(0, 2000, 8);
  submit_job(1, 1500, sharing_requirements());
  submit_job(2, 1500, sharing_requirements());
  NegotiatorConfig config;
  config.deduct_custom_resources = true;
  auto negotiator = make(config);
  negotiator.run_cycle();
  // After job 1 claims 1500 of 2000, job 2 no longer fits this cycle.
  EXPECT_EQ(dispatched_.size(), 1u);
}

TEST_F(NegotiatorTest, RejectedDispatchReturnsJobToPending) {
  add_machine(0, 10000, 4);
  submit_job(1, 100, sharing_requirements());
  auto negotiator =
      make({}, [](JobId, NodeId) { return DispatchResult::kRefused; });
  negotiator.run_cycle();
  EXPECT_EQ(schedd_.record(1).state, JobState::kPending);
  EXPECT_EQ(negotiator.stats().rejected_dispatches, 1u);
  EXPECT_EQ(negotiator.stats().matches, 0u);
}

TEST_F(NegotiatorTest, PreCycleHookRunsBeforeMatching) {
  add_machine(0, 10000, 4);
  submit_job(1, 100, "false");  // unmatchable until the hook pins it
  auto negotiator = make();
  negotiator.set_pre_cycle_hook([this] {
    schedd_.qedit_expr(1, kAttrRequirements, "TARGET.FreeSlots >= 1");
  });
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 1u);
}

TEST_F(NegotiatorTest, PeriodicCyclesFireOnTimer) {
  add_machine(0, 10000, 1);
  submit_job(1, 100, sharing_requirements());
  submit_job(2, 100, sharing_requirements());
  NegotiatorConfig config;
  config.cycle_interval = 10.0;
  auto negotiator = make(config);
  negotiator.start();
  sim_.run_until(10.5);
  EXPECT_EQ(dispatched_.size(), 1u);  // cycle at t=10
  // Free the slot before the next cycle.
  machine_slots_[0] = 1;
  schedd_.mark_running(1);
  schedd_.mark_completed(1);
  sim_.run_until(20.5);
  EXPECT_EQ(dispatched_.size(), 2u);  // cycle at t=20
  negotiator.stop();
  sim_.run();
  EXPECT_EQ(negotiator.stats().cycles, 2u);
}

TEST_F(NegotiatorTest, UnmatchableJobStaysPending) {
  add_machine(0, 100, 4);
  submit_job(1, 5000, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(schedd_.pending_count(), 1u);
}

TEST_F(NegotiatorTest, PinnedJobGoesToNamedNode) {
  add_machine(0, 10000, 4);
  add_machine(1, 10000, 4);
  add_machine(2, 10000, 4);
  submit_job(1, 100, pinned_requirements(2));
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 2);
}

TEST_F(NegotiatorTest, RandomOrderSpreadsAcrossMachines) {
  for (NodeId n = 0; n < 4; ++n) add_machine(n, 10000, 100);
  for (JobId id = 0; id < 40; ++id) submit_job(id, 100, sharing_requirements());
  NegotiatorConfig config;
  config.order = MachineOrder::kRandom;
  auto negotiator = make(config);
  negotiator.run_cycle();
  std::map<NodeId, int> per_node;
  for (const auto& [job, node] : dispatched_) per_node[node] += 1;
  EXPECT_EQ(per_node.size(), 4u);  // all machines used
}

TEST_F(NegotiatorTest, FirstFitOrderAlwaysPicksLowestNode) {
  for (NodeId n = 0; n < 4; ++n) add_machine(n, 10000, 100);
  for (JobId id = 0; id < 10; ++id) submit_job(id, 100, sharing_requirements());
  NegotiatorConfig config;
  config.order = MachineOrder::kFirstFit;
  auto negotiator = make(config);
  negotiator.run_cycle();
  for (const auto& [job, node] : dispatched_) EXPECT_EQ(node, 0);
}

TEST_F(NegotiatorTest, BestRankBreaksTiesTowardLowestNodeId) {
  // Regression: equal-Rank candidates must resolve to the LOWEST node id
  // (the strictly-greater scan over candidates in ascending machine
  // order), not whichever machine was seen last.
  add_machine(0, 100, 4);    // rank 100
  add_machine(1, 5000, 4);   // rank 5000 — tied best
  add_machine(2, 5000, 4);   // rank 5000 — tied best, higher id
  submit_job(1, 50, arbitrary_requirements());
  schedd_.qedit_expr(1, "Rank", "TARGET.PhiFreeMemory");
  NegotiatorConfig config;
  config.order = MachineOrder::kBestRank;
  auto negotiator = make(config);
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 1);
}

TEST_F(NegotiatorTest, BestRankWithoutRankActsLikeFirstFit) {
  add_machine(0, 100, 4);
  add_machine(1, 5000, 4);
  submit_job(1, 50, arbitrary_requirements());  // no Rank: all rank 0
  NegotiatorConfig config;
  config.order = MachineOrder::kBestRank;
  auto negotiator = make(config);
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 0);
}

TEST_F(NegotiatorTest, DeviceDeductionPreventsSameCycleOversubscription) {
  // One advertised free device; two exclusive jobs in the same cycle.
  collector_.advertise(0, [] {
    classad::ClassAd ad;
    ad.insert_string(kAttrName, machine_name(0));
    ad.insert_integer(kAttrFreeSlots, 8);
    ad.insert_integer(kAttrPhiFreeDevices, 1);
    ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
    return std::make_shared<const classad::ClassAd>(std::move(ad));
  });
  submit_job(1, 100, exclusive_requirements());
  submit_job(2, 100, exclusive_requirements());

  NegotiatorConfig config;
  config.deduct_custom_resources = true;
  auto negotiator = make(config);
  negotiator.run_cycle();
  // Job 1 claims the device in the cycle-local ad copy; job 2 no longer
  // matches TARGET.PhiFreeDevices >= 1 this cycle.
  EXPECT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(schedd_.pending_count(), 1u);
}

TEST_F(NegotiatorTest, StaleDeviceCountOversubscribesWithoutDeduction) {
  // The vanilla-Condor contrast for the test above: custom attributes
  // stay stale within the cycle, so both exclusive jobs match the single
  // advertised device.
  collector_.advertise(0, [] {
    classad::ClassAd ad;
    ad.insert_string(kAttrName, machine_name(0));
    ad.insert_integer(kAttrFreeSlots, 8);
    ad.insert_integer(kAttrPhiFreeDevices, 1);
    ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
    return std::make_shared<const classad::ClassAd>(std::move(ad));
  });
  submit_job(1, 100, exclusive_requirements());
  submit_job(2, 100, exclusive_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 2u);
}

TEST_F(NegotiatorTest, RejectsBadConfig) {
  NegotiatorConfig config;
  config.cycle_interval = 0.0;
  EXPECT_THROW(make(config), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::condor

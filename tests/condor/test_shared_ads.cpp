// Copy-on-write machine ads: the collector hands every reader the same
// immutable ad, and a negotiation cycle copies an ad only when a
// successful claim deducts from it. The deduction is visible to the
// rest of that cycle, never to the collector's ad or to the next cycle.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "condor/ads.hpp"
#include "condor/negotiator.hpp"
#include "condor/strategy.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

/// One node with one free device, eight slots and 4000 MiB.
SharedAd one_device_machine(NodeId node) {
  auto ad = std::make_shared<classad::ClassAd>();
  ad->insert_string(kAttrName, machine_name(node));
  ad->insert_integer(kAttrFreeSlots, 8);
  ad->insert_integer(kAttrPhiFreeDevices, 1);
  ad->insert_integer(kAttrPhiFreeMemory, 4000);
  ad->insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
  return ad;
}

class SharedAdsTest : public ::testing::Test {
 protected:
  SharedAdsTest() : schedd_(sim_) {}

  void submit_exclusive(JobId id) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = 100;
    spec.threads_req = 60;
    schedd_.submit(id, make_job_ad(spec, exclusive_requirements()));
  }

  Simulator sim_;
  Schedd schedd_;
  std::vector<JobId> dispatched_;
};

TEST_F(SharedAdsTest, DeductionIsSeenInCycleButNeverByCollectorOrNextCycle) {
  const SharedAd advertised = one_device_machine(0);
  const std::string advertised_text = advertised->to_string();
  Collector collector;
  collector.advertise(0, [&] { return advertised; });
  for (JobId id = 1; id <= 3; ++id) submit_exclusive(id);

  NegotiatorConfig config;
  config.order = MachineOrder::kFirstFit;
  config.deduct_custom_resources = true;
  Negotiator negotiator(
      sim_, schedd_, collector,
      [this](JobId job, NodeId) {
        dispatched_.push_back(job);
        return DispatchResult::kAccepted;
      },
      config, Rng(1));

  negotiator.run_cycle();
  // Job 1's claim took the only device in the cycle's copy, so jobs 2
  // and 3 no longer match this cycle.
  EXPECT_EQ(dispatched_, (std::vector<JobId>{1}));
  EXPECT_EQ(advertised->to_string(), advertised_text);
  EXPECT_EQ(collector.machine_ad(0), advertised);

  // The collector still advertises the free device, so the next cycle
  // starts from it again.
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(advertised->to_string(), advertised_text);
}

TEST_F(SharedAdsTest, OnlySuccessfulClaimsCopyTheirMachine) {
  const SharedAd a0 = one_device_machine(0);
  const SharedAd a1 = one_device_machine(1);
  const std::string a0_text = a0->to_string();
  MachineAds machines = {{0, a0}, {1, a1}};
  for (JobId id = 1; id <= 4; ++id) submit_exclusive(id);

  // Node 0 refuses jobs 1 and 2; job 3 dispatches there; job 4 then
  // sees node 0's deducted copy and lands on node 1, refused again.
  std::vector<std::pair<JobId, NodeId>> attempts;
  const DispatchFn dispatch = [&](JobId job, NodeId node) {
    attempts.emplace_back(job, node);
    return job == 3 ? DispatchResult::kAccepted : DispatchResult::kRefused;
  };
  Rng rng(1);
  const std::vector<JobId> pending = ordered_pending(schedd_, schedd_.pending());
  MatchCycle cycle{schedd_,  rng,     MachineOrder::kFirstFit, true,
                   machines, pending, dispatch,                0.0,
                   false};
  const CycleOutcome outcome =
      make_match_strategy(NegotiationConfig{})->run(cycle);

  EXPECT_EQ(attempts, (std::vector<std::pair<JobId, NodeId>>{
                          {1, 0}, {2, 0}, {3, 0}, {4, 1}}));
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(outcome.rejected_dispatches, 3u);
  // The one match replaced node 0's pointer with a deducted copy; the
  // refusal on node 1 copied nothing; the shared ads are untouched.
  EXPECT_NE(machines[0].second, a0);
  EXPECT_EQ(machines[0].second->eval_integer(kAttrPhiFreeDevices), 0);
  EXPECT_EQ(machines[0].second->eval_integer(kAttrFreeSlots), 7);
  EXPECT_EQ(machines[1].second, a1);
  EXPECT_EQ(a0->to_string(), a0_text);
}

TEST_F(SharedAdsTest, StaleCollectorKeepsTheEpochsAdWhileTheSourceMovesOn) {
  Collector collector(sim_, 10.0);
  SharedAd current = one_device_machine(0);
  collector.advertise(0, [&] { return current; });
  const SharedAd epoch0 = collector.machine_ad(0);
  EXPECT_EQ(epoch0, current);

  current = std::make_shared<classad::ClassAd>(*one_device_machine(0));
  sim_.run_until(9.0);
  EXPECT_EQ(collector.machine_ad(0), epoch0);
  EXPECT_EQ(collector.machine_ads().front().second, epoch0);
  sim_.run_until(10.0);
  EXPECT_EQ(collector.machine_ad(0), current);
}

}  // namespace
}  // namespace phisched::condor

// Rank-based machine selection: the negotiator honours the job ad's Rank
// expression when choosing among matching machines.
#include <gtest/gtest.h>

#include <memory>

#include "condor/ads.hpp"
#include "condor/negotiator.hpp"

namespace phisched::condor {
namespace {

class RankTest : public ::testing::Test {
 protected:
  RankTest() : schedd_(sim_) {}

  void add_machine(NodeId node, std::int64_t free_mem) {
    collector_.advertise(node, [node, free_mem] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(node));
      ad.insert_integer(kAttrPhiFreeMemory, free_mem);
      ad.insert_integer(kAttrFreeSlots, 8);
      return std::make_shared<const classad::ClassAd>(std::move(ad));
    });
  }

  Negotiator make() {
    NegotiatorConfig config;
    config.order = MachineOrder::kBestRank;
    return Negotiator(
        sim_, schedd_, collector_,
        [this](JobId job, NodeId node) {
          dispatched_.emplace_back(job, node);
          return DispatchResult::kAccepted;
        },
        config, Rng(1));
  }

  Simulator sim_;
  Schedd schedd_;
  Collector collector_;
  std::vector<std::pair<JobId, NodeId>> dispatched_;
};

TEST_F(RankTest, PicksHighestRankedMachine) {
  add_machine(0, 1000);
  add_machine(1, 9000);
  add_machine(2, 5000);
  classad::ClassAd job;
  job.insert_integer(kAttrJobId, 1);
  job.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  job.insert_expr("Rank", "TARGET.PhiFreeMemory");
  schedd_.submit(1, job);
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 1);  // most free memory
}

TEST_F(RankTest, NegativeRankStillComparable) {
  add_machine(0, 1000);
  add_machine(1, 9000);
  classad::ClassAd job;
  job.insert_integer(kAttrJobId, 1);
  job.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  job.insert_expr("Rank", "-TARGET.PhiFreeMemory");  // prefers LESS memory
  schedd_.submit(1, job);
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 0);
}

TEST_F(RankTest, NoRankFallsBackToFirstMatch) {
  add_machine(0, 1000);
  add_machine(1, 9000);
  classad::ClassAd job;
  job.insert_integer(kAttrJobId, 1);
  job.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  schedd_.submit(1, job);
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 0);
}

TEST_F(RankTest, RankOnlyConsidersMatchingMachines) {
  add_machine(0, 1000);
  add_machine(1, 9000);
  classad::ClassAd job;
  job.insert_integer(kAttrJobId, 1);
  job.insert_integer(kAttrRequestPhiMemory, 2000);
  job.insert_expr(kAttrRequirements,
                  "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  job.insert_expr("Rank", "-TARGET.PhiFreeMemory");  // would prefer node0...
  schedd_.submit(1, job);
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 1);  // ...but node0 does not match
}

}  // namespace
}  // namespace phisched::condor

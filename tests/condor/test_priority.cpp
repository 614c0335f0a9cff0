// Job priorities: the negotiator examines higher-JobPrio jobs first,
// FIFO within equal priorities.
#include <gtest/gtest.h>

#include <memory>

#include "condor/ads.hpp"
#include "condor/negotiator.hpp"

namespace phisched::condor {
namespace {

class PriorityTest : public ::testing::Test {
 protected:
  PriorityTest() : schedd_(sim_) {
    collector_.advertise(0, [this] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(0));
      ad.insert_integer(kAttrFreeSlots, slots_);
      return std::make_shared<const classad::ClassAd>(std::move(ad));
    });
  }

  void submit(JobId id, std::optional<std::int64_t> prio) {
    classad::ClassAd ad;
    ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
    ad.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
    if (prio.has_value()) ad.insert_integer(kAttrJobPrio, *prio);
    schedd_.submit(id, ad);
  }

  std::vector<JobId> run_one_cycle() {
    std::vector<JobId> dispatched;
    Negotiator negotiator(
        sim_, schedd_, collector_,
        [&dispatched](JobId job, NodeId) {
          dispatched.push_back(job);
          return DispatchResult::kAccepted;
        },
        NegotiatorConfig{}, Rng(1));
    negotiator.run_cycle();
    return dispatched;
  }

  Simulator sim_;
  Schedd schedd_;
  Collector collector_;
  std::int64_t slots_ = 100;
};

TEST_F(PriorityTest, HigherPriorityExaminedFirst) {
  submit(1, 0);
  submit(2, 10);
  submit(3, 5);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{2, 3, 1}));
}

TEST_F(PriorityTest, FifoWithinEqualPriority) {
  submit(5, 3);
  submit(1, 3);
  submit(9, 3);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{5, 1, 9}));
}

TEST_F(PriorityTest, MissingPriorityIsZero) {
  submit(1, std::nullopt);
  submit(2, -1);
  submit(3, 1);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{3, 1, 2}));
}

TEST_F(PriorityTest, PriorityWinsScarceSlots) {
  slots_ = 1;
  submit(1, 0);
  submit(2, 100);
  const auto dispatched = run_one_cycle();
  ASSERT_EQ(dispatched.size(), 1u);
  EXPECT_EQ(dispatched[0], 2u);
}

}  // namespace
}  // namespace phisched::condor

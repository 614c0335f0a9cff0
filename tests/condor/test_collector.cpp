#include "condor/collector.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace phisched::condor {
namespace {

SharedAd ad_with(std::int64_t free) {
  auto ad = std::make_shared<classad::ClassAd>();
  ad->insert_integer("PhiFreeMemory", free);
  return ad;
}

TEST(Collector, AdvertiseAndFetch) {
  Collector collector;
  collector.advertise(0, [] { return ad_with(100); });
  collector.advertise(1, [] { return ad_with(200); });
  EXPECT_EQ(collector.machine_count(), 2u);
  EXPECT_EQ(collector.machine_ad(1)->eval_integer("PhiFreeMemory"), 200);
}

TEST(Collector, AdsReflectCurrentState) {
  // The collector materializes ads lazily, modelling fresh updates.
  Collector collector;
  std::int64_t free = 100;
  collector.advertise(0, [&] { return ad_with(free); });
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 100);
  free = 50;
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 50);
}

TEST(Collector, MachineAdsOrderedByNode) {
  Collector collector;
  collector.advertise(2, [] { return ad_with(2); });
  collector.advertise(0, [] { return ad_with(0); });
  collector.advertise(1, [] { return ad_with(1); });
  const auto ads = collector.machine_ads();
  ASSERT_EQ(ads.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ads[i].first, static_cast<NodeId>(i));
    EXPECT_EQ(ads[i].second->eval_integer("PhiFreeMemory"),
              static_cast<std::int64_t>(i));
  }
}

TEST(Collector, ReAdvertiseReplaces) {
  Collector collector;
  collector.advertise(0, [] { return ad_with(1); });
  collector.advertise(0, [] { return ad_with(2); });
  EXPECT_EQ(collector.machine_count(), 1u);
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 2);
}

TEST(Collector, WithdrawRemoves) {
  Collector collector;
  collector.advertise(0, [] { return ad_with(1); });
  collector.withdraw(0);
  EXPECT_EQ(collector.machine_count(), 0u);
  EXPECT_THROW((void)collector.machine_ad(0), std::invalid_argument);
}

TEST(Collector, NullSourceThrows) {
  Collector collector;
  EXPECT_THROW(collector.advertise(0, nullptr), std::invalid_argument);
}

TEST(Collector, StaleModeServesEpochSnapshots) {
  Simulator sim;
  Collector collector(sim, /*update_interval=*/10.0);
  std::int64_t free = 100;
  collector.advertise(0, [&] { return ad_with(free); });

  // Epoch [0,10): first query caches the current state.
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 100);
  free = 50;
  sim.run_until(9.0);
  // Still the stale snapshot from this epoch.
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 100);
  sim.run_until(10.0);
  // New epoch: the update went through.
  EXPECT_EQ(collector.machine_ad(0)->eval_integer("PhiFreeMemory"), 50);
}

TEST(Collector, StaleModeAffectsMachineAdsToo) {
  Simulator sim;
  Collector collector(sim, 5.0);
  int calls = 0;
  collector.advertise(0, [&] {
    ++calls;
    return ad_with(1);
  });
  (void)collector.machine_ads();
  (void)collector.machine_ads();
  (void)collector.machine_ads();
  EXPECT_EQ(calls, 1);  // cached within the epoch
  sim.run_until(5.0);
  (void)collector.machine_ads();
  EXPECT_EQ(calls, 2);
}

TEST(Collector, StaleModeRejectsBadInterval) {
  Simulator sim;
  EXPECT_THROW(Collector(sim, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::condor

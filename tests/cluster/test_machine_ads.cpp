// Memoized machine ads: a Node rebuilds its ClassAd only when an
// advertised input changes, and hands out one shared, immutable ad
// otherwise. The memo is checked two ways: a change of each input must
// force a rebuild, and after every event of seeded full-stack runs the
// memoized ad must equal a fresh build.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "cluster/node.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

/// Takes the node's ad and checks it against a fresh build; returns it.
std::shared_ptr<const classad::ClassAd> checked_ad(const Node& node) {
  auto ad = node.shared_machine_ad();
  EXPECT_EQ(ad->to_string(), node.build_machine_ad().to_string());
  return ad;
}

TEST(MachineAdMemo, UnchangedStateReturnsTheSameAd) {
  Simulator sim;
  Node node(sim, 0, NodeConfig{}, Rng(1));
  const auto first = checked_ad(node);
  EXPECT_EQ(node.shared_machine_ad(), first);
  EXPECT_EQ(&node.machine_ad(), first.get());
}

TEST(MachineAdMemo, EachAdvertisedInputRebuildsTheAd) {
  Simulator sim;
  NodeConfig config;
  config.hw.phi_devices = 2;
  config.device.mem_bw.contention = true;  // publishes PhiFreeBandwidth<d>
  Node node(sim, 0, config, Rng(1));
  cosmic::NodeMiddleware& mw = node.middleware();

  JobId next = 1;
  // Admits a job on device 1 declaring only what `decl` sets.
  auto admit = [&](cosmic::JobDeclaration decl) {
    bool admitted = false;
    mw.submit_job(next++, std::vector<DeviceId>{1}, decl, nullptr,
                  [&] { admitted = true; });
    ASSERT_TRUE(admitted);
  };
  // Applies `change`, then requires a new ad equal to a fresh build and
  // different from the previous one, which must itself stay untouched.
  auto expect_rebuilt = [&](const char* input, const auto& change) {
    SCOPED_TRACE(input);
    const auto before = checked_ad(node);
    const std::string before_text = before->to_string();
    change();
    const auto after = checked_ad(node);
    EXPECT_NE(after, before);
    EXPECT_NE(after->to_string(), before_text);
    EXPECT_EQ(before->to_string(), before_text);
  };

  expect_rebuilt("free slots", [&] { node.claim_slot(); });
  cosmic::JobDeclaration decl;
  decl.mem_per_device = 512;  // every job declares some memory
  expect_rebuilt("idle device and memory", [&] { admit(decl); });
  expect_rebuilt("memory alone", [&] { admit(decl); });
  // Threads and bandwidth cannot move alone on admission (memory moves
  // too), so swap a finished job for one that differs only there.
  expect_rebuilt("unreserved threads", [&] {
    mw.finish_job(next - 1);
    decl.threads = 60;
    admit(decl);
  });
  expect_rebuilt("unreserved bandwidth", [&] {
    mw.finish_job(next - 1);
    decl.mem_bw_mib_s = 5000.0;
    admit(decl);
  });
  expect_rebuilt("release", [&] {
    for (JobId id = 1; id < next; ++id) {
      if (mw.job_known(id)) mw.finish_job(id);
    }
  });
}

/// Drives `config` event by event and compares every node's memoized ad
/// with a fresh build after each one. Counts how often the memo served
/// the previous ad, so a run that never exercises it cannot pass.
void expect_memo_matches_fresh_builds(const ExperimentConfig& config,
                                      const workload::JobSet& jobs) {
  Harness harness(config);
  harness.submit(jobs);
  std::vector<std::shared_ptr<const classad::ClassAd>> last(config.node_count);
  std::size_t reused = 0;
  std::size_t rebuilt = 0;
  std::size_t events = 0;
  while (harness.step()) {
    ++events;
    for (NodeId n = 0; n < static_cast<NodeId>(config.node_count); ++n) {
      const Node& node = harness.node(n);
      const auto ad = node.shared_machine_ad();
      ASSERT_EQ(ad->to_string(), node.build_machine_ad().to_string())
          << "node " << n << " after event " << events << " (t="
          << harness.now() << ")";
      auto& prev = last[static_cast<std::size_t>(n)];
      (ad == prev ? reused : rebuilt) += 1;
      prev = ad;
    }
  }
  ASSERT_TRUE(harness.complete());
  EXPECT_GT(reused, events);
  EXPECT_GT(rebuilt, jobs.size());
}

TEST(MachineAdMemo, MatchesFreshBuildsAfterEveryEventMC) {
  ExperimentConfig config;
  config.node_count = 3;
  config.stack = StackConfig::kMC;
  config.seed = 5;
  expect_memo_matches_fresh_builds(
      config, workload::make_real_jobset(40, Rng(5).child("jobs")));
}

TEST(MachineAdMemo, MatchesFreshBuildsAfterEveryEventMCCK) {
  ExperimentConfig config;
  config.node_count = 3;
  config.stack = StackConfig::kMCCK;
  config.seed = 6;
  expect_memo_matches_fresh_builds(
      config, workload::make_real_jobset(60, Rng(6).child("jobs")));
}

TEST(MachineAdMemo, MatchesFreshBuildsAfterEveryEventMCCKFleet) {
  // The benchmark's fleet: PCIe switch plus the bandwidth model, with
  // half the jobs declaring a bandwidth share so PhiFreeBandwidth<d>
  // moves.
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCCK;
  config.seed = 7;
  config.devices = phi::parse_device_spec("2x5110P+2x7120P");
  config.mem_bw.contention = true;
  config.pcie.contention = true;
  config.pcie_switch.enabled = true;
  workload::JobSet jobs = workload::make_real_jobset(60, Rng(7).child("jobs"));
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    jobs[i].mem_bw_mib_s = 80000.0;
  }
  expect_memo_matches_fresh_builds(config, jobs);
}

}  // namespace
}  // namespace phisched::cluster

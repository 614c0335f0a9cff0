// Liveness: a run that can never finish must say so at once instead of
// spinning on its periodic negotiator timer.
//   - The harness throws, naming the stuck jobs, after a cycle that left
//     jobs pending while nothing but its own timers is queued and the
//     collector's ads are current.
//   - With a stale collector the verdict waits for the ads to catch up:
//     a job that only stale ads keep from matching is not stuck.
//   - Under MCCK, submit refuses a job above a card's capacity on the
//     knapsack's memory grid, which the knapsack could never pin.
// The module's ctest timeout turns a regression into a failure instead
// of a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "core/policy.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

workload::JobSpec offload_job(JobId id, MiB mem, SimTime seconds) {
  workload::JobSpec job;
  job.id = id;
  job.mem_req_mib = mem;
  job.threads_req = 60;
  job.profile = workload::OffloadProfile(
      {workload::Segment::offload(seconds, 60, 800)});
  return job;
}

/// Pins the jobs it is told to, each on the first device with room, and
/// never any other: the rest keep the add-on's `Requirements = false`
/// that no machine satisfies.
class PinOnly final : public core::AssignmentPolicy {
 public:
  explicit PinOnly(std::vector<JobId> jobs) : jobs_(std::move(jobs)) {}

  std::vector<core::Assignment> assign(
      const std::vector<core::PendingJobView>& pending,
      const std::vector<core::DeviceView>& devices) override {
    std::vector<core::Assignment> out;
    for (const core::PendingJobView& job : pending) {
      if (std::find(jobs_.begin(), jobs_.end(), job.id) == jobs_.end()) {
        continue;
      }
      for (const core::DeviceView& device : devices) {
        if (device.free_memory_mib >= job.mem_req_mib) {
          out.push_back(core::Assignment{job.id, device.addr});
          break;
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::string name() const override { return "pin-only"; }

 private:
  std::vector<JobId> jobs_;
};

ExperimentConfig pin_only_config(std::vector<JobId> pinned) {
  ExperimentConfig config;
  config.node_count = 1;
  config.stack = StackConfig::kMCCK;
  config.policy_factory = [pinned] {
    return std::make_unique<PinOnly>(pinned);
  };
  return config;
}

/// Runs `harness` to completion and returns the deadlock message.
std::string deadlock_message(Harness& harness) {
  try {
    harness.run_to_completion();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "the run finished instead of reporting a deadlock";
  return "";
}

TEST(Liveness, JobsNoMachineTakesAreReportedByName) {
  Harness harness(pin_only_config({}));
  harness.submit(offload_job(3, 1000, 10.0));
  harness.submit(offload_job(7, 1000, 10.0));
  const std::string message = deadlock_message(harness);
  EXPECT_NE(message.find("deadlock"), std::string::npos) << message;
  EXPECT_NE(message.find("2 pending job(s)"), std::string::npos) << message;
  EXPECT_NE(message.find("(3, 7)"), std::string::npos) << message;
  // The first cycle had the submits to absorb; the second saw nothing new.
  EXPECT_LE(harness.now(), harness.config().negotiation_interval);
}

TEST(Liveness, StuckJobIsReportedOnceTheOthersFinish) {
  Harness harness(pin_only_config({0}));
  harness.submit(offload_job(0, 1000, 30.0));
  harness.submit(offload_job(1, 1000, 10.0));
  const std::string message = deadlock_message(harness);
  EXPECT_NE(message.find("1 pending job(s)"), std::string::npos) << message;
  EXPECT_NE(message.find("(1)"), std::string::npos) << message;
  EXPECT_EQ(harness.jobs_completed(), 1u);
  EXPECT_GE(harness.now(), 30.0);
}

TEST(Liveness, StaleAdsDelayTheVerdictUntilTheyCatchUp) {
  // Job 0 runs from t=0 to about t=150; the collector refreshes at t=100
  // (job 0 busy) and next at t=200. Job 1 is stuck for good, but the
  // verdict may only come once the t=200 ads show the finished job.
  ExperimentConfig config = pin_only_config({0});
  config.ad_update_interval = 100.0;
  Harness harness(config);
  harness.submit(offload_job(0, 1000, 150.0));
  harness.submit(offload_job(1, 1000, 10.0));
  const std::string message = deadlock_message(harness);
  EXPECT_NE(message.find("(1)"), std::string::npos) << message;
  EXPECT_GE(harness.now(), 200.0);
}

TEST(Liveness, StaleAdsThatHideAFreeCardAreNotADeadlock) {
  // One card, ads refreshed every 100 s. The t=100 ads show job 0
  // holding the card until it ends near t=150; job 1 matches nothing in
  // the cycles up to t=200 although the card is free, then runs.
  ExperimentConfig config;
  config.node_count = 1;
  config.node_hw.phi_devices = 1;
  config.stack = StackConfig::kMC;
  config.ad_update_interval = 100.0;
  Harness harness(config);
  harness.submit(offload_job(0, 1000, 150.0));
  harness.submit(offload_job(1, 1000, 10.0));
  const ExperimentResult r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, 2u);
  EXPECT_GE(harness.schedd().record(1).start_time, 200.0);
}

TEST(Liveness, KnapsackRefusesAFirstSubmissionAboveTheGridCapacity) {
  // A 3120A holds 5632 MiB; the MCCK knapsack counts 5600 of it (the
  // 50 MiB grid), so a 5620 MiB job could never be pinned.
  ExperimentConfig config;
  config.node_count = 1;
  config.stack = StackConfig::kMCCK;
  config.devices = phi::parse_device_spec("1x3120A");
  {
    Harness harness(config);
    try {
      harness.submit(offload_job(0, 5620, 10.0));
      ADD_FAILURE() << "a 5620 MiB job was accepted on a 3120A under MCCK";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("job 0 does not fit the fleet"),
                std::string::npos)
          << e.what();
    }
  }
  // On the grid it is accepted and runs.
  Harness harness(config);
  harness.submit(offload_job(0, 5600, 10.0));
  EXPECT_EQ(harness.run_to_completion().jobs_completed, 1u);
}

TEST(Liveness, StacksWithoutTheKnapsackKeepTheCardsFullCapacity) {
  for (const StackConfig stack : {StackConfig::kMC, StackConfig::kMCC}) {
    ExperimentConfig config;
    config.node_count = 1;
    config.stack = stack;
    config.devices = phi::parse_device_spec("1x3120A");
    Harness harness(config);
    harness.submit(offload_job(0, 5620, 10.0));
    EXPECT_EQ(harness.run_to_completion().jobs_completed, 1u);
  }
}

}  // namespace
}  // namespace phisched::cluster

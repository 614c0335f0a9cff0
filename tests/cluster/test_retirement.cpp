// What the program keeps of a job once it ends: the schedd drops its ad
// and match signature, the harness frees its run and spec, and only the
// compact lifecycle record stays. Also pins the fleet-capacity checks a
// job must pass at submit and on a boosted retry, on cards smaller than
// the default 5110P.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cluster/harness.hpp"
#include "cluster/service.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

using workload::OffloadProfile;
using workload::Segment;

bool terminal(condor::JobState s) {
  return s == condor::JobState::kCompleted || s == condor::JobState::kFailed;
}

/// Every known record of `ids` is terminal and carries no ad or signature.
void expect_retired(const condor::Schedd& schedd, JobId ids) {
  for (JobId id = 0; id < ids; ++id) {
    if (!schedd.known(id)) continue;
    const condor::JobRecord& rec = schedd.record(id);
    SCOPED_TRACE("job " + std::to_string(id));
    EXPECT_TRUE(terminal(rec.state));
    EXPECT_EQ(rec.ad.size(), 0u);
    EXPECT_EQ(rec.signature.requirements, nullptr);
    EXPECT_TRUE(rec.signature.reads.empty());
    EXPECT_GE(rec.finish_time, rec.submit_time);
  }
}

TEST(Retirement, DrainedServiceKeepsOnlyCompactRecords) {
  ServiceConfig config;
  config.cluster.node_count = 2;
  config.cluster.stack = StackConfig::kMCCK;
  config.cluster.seed = 3;
  config.arrivals.kind = workload::ArrivalKind::kPoisson;
  config.arrivals.rate = 0.15;
  config.horizon_s = 1200.0;
  config.window_s = 300.0;
  Service service(config);
  const ServiceResult result = service.run();
  ASSERT_TRUE(result.drained);
  ASSERT_GT(result.jobs_admitted, 50u);

  const Harness& harness = service.harness();
  EXPECT_EQ(harness.runs_held(), 0u);
  EXPECT_EQ(harness.schedd().completed_count() + harness.schedd().failed_count(),
            result.jobs_admitted);
  expect_retired(harness.schedd(),
                 static_cast<JobId>(result.jobs_generated));
}

/// Declares 500 MiB but needs ~2 GiB: killed three times (500, 1000,
/// 2000 MiB), then fits at 4000.
workload::JobSpec stubborn_liar(JobId id) {
  workload::JobSpec job;
  job.id = id;
  job.mem_req_mib = 500;
  job.threads_req = 60;
  job.profile = OffloadProfile({Segment::offload(2.0, 60, 2100)});
  return job;
}

TEST(Retirement, HarnessHoldsRunsOnlyForDispatchedLiveJobs) {
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCCK;
  config.max_retries = 3;
  workload::JobSet jobs = workload::make_real_jobset(30, Rng(4).child("jobs"));
  jobs.push_back(stubborn_liar(30));
  jobs.push_back(stubborn_liar(31));
  Harness harness(config);
  harness.submit(jobs);

  while (harness.step()) {
    std::size_t active = 0;
    for (const workload::JobSpec& job : jobs) {
      if (!harness.schedd().known(job.id)) continue;
      const condor::JobState s = harness.schedd().record(job.id).state;
      active += s == condor::JobState::kMatched ||
                s == condor::JobState::kRunning;
    }
    ASSERT_EQ(harness.runs_held(), active) << "t=" << harness.now();
  }
  const ExperimentResult& r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, jobs.size());
  EXPECT_EQ(r.job_retries, 6u);
  EXPECT_EQ(harness.runs_held(), 0u);
  expect_retired(harness.schedd(), static_cast<JobId>(jobs.size()));
}

TEST(Retirement, OneShotBatchFreesRunsAsItGoes) {
  // run_to_completion() drives the whole batch in one call, so only the
  // dispatches inside it can free finished runs: the runs held at any
  // terminal transition must stay far below the job count.
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCCK;
  const workload::JobSet jobs =
      workload::make_real_jobset(80, Rng(9).child("jobs"));
  Harness harness(config);
  std::size_t most_held = 0;
  harness.set_terminal_observer([&](const condor::JobRecord&) {
    most_held = std::max(most_held, harness.runs_held());
  });
  harness.submit(jobs);
  EXPECT_EQ(harness.run_to_completion().jobs_completed, jobs.size());
  EXPECT_GT(most_held, 0u);
  EXPECT_LT(most_held, jobs.size() / 2);
  EXPECT_EQ(harness.runs_held(), 0u);
}

ExperimentConfig small_card_fleet() {
  ExperimentConfig config;
  config.node_count = 1;
  config.stack = StackConfig::kMCCK;
  config.devices = phi::parse_device_spec("1x3120A");  // 228 threads, 5632 MiB
  return config;
}

TEST(FleetCapacity, SmallCardRejectsOversizedJobAndRunsAFittingOne) {
  Harness harness(small_card_fleet());
  workload::JobSpec wide;
  wide.id = 7;
  wide.mem_req_mib = 1000;
  wide.threads_req = 240;  // a Table I BT job; the 3120A has 228
  wide.profile = OffloadProfile({Segment::offload(1.0, 240, 500)});
  try {
    harness.submit(wide);
    FAIL() << "a 240-thread job was accepted on a 228-thread card";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 7 does not fit"),
              std::string::npos)
        << e.what();
  }

  workload::JobSpec big = wide;
  big.id = 8;
  big.threads_req = 60;
  big.mem_req_mib = 6000;  // over the card's 5632 MiB
  EXPECT_THROW(harness.submit(big), std::invalid_argument);

  workload::JobSpec gang = big;
  gang.id = 9;
  gang.mem_req_mib = 1000;
  gang.devices_req = 2;  // the node has one card
  EXPECT_THROW(harness.submit(gang), std::invalid_argument);

  workload::JobSpec fits = wide;
  fits.id = 10;
  fits.threads_req = 228;
  fits.profile = OffloadProfile({Segment::offload(1.0, 228, 500)});
  harness.submit(fits);
  const ExperimentResult& r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_EQ(harness.jobs_submitted(), 1u);
}

TEST(FleetCapacity, RetryBoostStopsAtTheFleetsLargestCard) {
  // Declares 1500 MiB, needs ~5 GiB. Boosts: 1500 -> 3000 -> 6000, and
  // 6000 exceeds the 3120A's 5632 MiB: the third attempt must be capped
  // at 5600, the card's capacity on the 50 MiB grid (which holds the
  // job), rather than the default card's 7680, which no card here could
  // ever admit.
  ExperimentConfig config = small_card_fleet();
  config.max_retries = 3;
  workload::JobSpec job;
  job.id = 0;
  job.mem_req_mib = 1500;
  job.threads_req = 60;
  job.profile = OffloadProfile({Segment::offload(2.0, 60, 5000)});
  Harness harness(config);
  harness.submit(job);
  const ExperimentResult& r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_EQ(r.job_retries, 2u);
}

}  // namespace
}  // namespace phisched::cluster

// Cached declared requests: the schedd evaluates a job's RequestPhi*
// attributes on the first read after its ad changed and serves that
// reading until the next change. After every event of seeded full-stack
// runs — including retries, whose requeue boosts the declared memory —
// each pending job's cached requests must equal a fresh evaluation of
// its ad.
#include <gtest/gtest.h>

#include "cluster/harness.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

/// Drives `harness` event by event, comparing every pending job's cached
/// requests with a fresh read of its ad after each event.
void expect_cache_matches_ads(Harness& harness) {
  std::size_t compared = 0;
  while (harness.step()) {
    const condor::Schedd& schedd = harness.schedd();
    for (const JobId id : schedd.pending()) {
      const condor::JobRecord& rec = schedd.record(id);
      const condor::JobRequests fresh = condor::read_requests(rec.ad);
      const condor::JobRequests& cached = rec.requests();
      ASSERT_EQ(cached.memory_mib, fresh.memory_mib)
          << "job " << id << " at t=" << harness.now();
      ASSERT_EQ(cached.threads, fresh.threads) << "job " << id;
      ASSERT_EQ(cached.devices, fresh.devices) << "job " << id;
      ASSERT_EQ(cached.bandwidth, fresh.bandwidth) << "job " << id;
      ++compared;
    }
  }
  EXPECT_TRUE(harness.complete());
  EXPECT_GT(compared, harness.jobs_submitted());
}

TEST(RequestCache, MatchesFreshReadsAfterEveryEventMCCK) {
  ExperimentConfig config;
  config.node_count = 3;
  config.stack = StackConfig::kMCCK;
  config.seed = 6;
  Harness harness(config);
  harness.submit(workload::make_real_jobset(60, Rng(6).child("jobs")));
  expect_cache_matches_ads(harness);
}

TEST(RequestCache, MatchesFreshReadsAfterEveryEventWithRetries) {
  // Every fifth job under-declares its memory: COSMIC kills it and the
  // harness requeues it with a boosted declaration, a new ad whose
  // requests differ from the one the add-on read before.
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCCK;
  config.seed = 8;
  config.max_retries = 3;
  config.retry_memory_boost = 2.0;
  workload::JobSet jobs = workload::make_real_jobset(50, Rng(8).child("jobs"));
  for (std::size_t i = 0; i < jobs.size(); i += 5) jobs[i].mem_req_mib = 100;
  Harness harness(config);
  harness.submit(jobs);
  expect_cache_matches_ads(harness);
  EXPECT_GT(harness.result().job_retries, 5u);
}

TEST(RequestCache, MatchesFreshReadsAfterEveryEventMCCKFleet) {
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
  Harness harness(config);
  harness.submit(jobs);
  expect_cache_matches_ads(harness);
}

}  // namespace
}  // namespace phisched::cluster

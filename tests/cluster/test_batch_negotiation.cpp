// End-to-end coverage for the batched occupancy-aware negotiation mode:
// full-stack runs on the batch strategy must complete every job, stay
// bit-identical across repeats, and expose the batch telemetry
// instruments only when the batch strategy is active (the FIFO telemetry
// document is pinned byte-identical elsewhere, in test_fifo_equivalence).
#include <gtest/gtest.h>

#include "cluster/harness.hpp"
#include "condor/strategy.hpp"
#include "obs/recorder.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

ExperimentConfig batch_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.node_count = 4;
  config.stack = StackConfig::kMCCK;
  config.seed = seed;
  config.telemetry = true;
  config.negotiation =
      condor::parse_negotiation("batch:size=16,occ=0.9,packer=dp2d");
  return config;
}

ExperimentResult run(const ExperimentConfig& config, std::size_t job_count) {
  const auto jobs = workload::make_synthetic_jobset(
      workload::Distribution::kUniform, job_count,
      Rng(config.seed).child("jobs"));
  Harness harness(config);
  harness.submit(jobs);
  return harness.run_to_completion();
}

TEST(BatchNegotiation, CompletesTheWholeWorkload) {
  const ExperimentResult r = run(batch_config(42), 40);
  EXPECT_EQ(r.jobs_completed, 40u);
  EXPECT_EQ(r.jobs_failed, 0u);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(BatchNegotiation, BitIdenticalAcrossRepeats) {
  const ExperimentResult a = run(batch_config(42), 40);
  const ExperimentResult b = run(batch_config(42), 40);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_core_utilization, b.avg_core_utilization);
  EXPECT_EQ(a.device_energy_mj, b.device_energy_mj);
  EXPECT_EQ(a.mean_turnaround, b.mean_turnaround);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_TRUE(*a.telemetry == *b.telemetry);
}

TEST(BatchNegotiation, ExposesBatchTelemetry) {
  const ExperimentResult r = run(batch_config(42), 40);
  ASSERT_NE(r.telemetry, nullptr);
  const auto& m = r.telemetry->metrics;
  ASSERT_TRUE(m.counters.contains("condor.negotiator.batch_jobs"));
  ASSERT_TRUE(m.counters.contains("condor.negotiator.packed"));
  ASSERT_TRUE(m.counters.contains("condor.negotiator.occupancy_rejected"));
  EXPECT_TRUE(m.histograms.contains("condor.negotiator.match_latency"));
  // Every drained job is counted, and every match came out of the
  // pipeline (packed placements + per-job fallback matches).
  EXPECT_GE(m.counters.at("condor.negotiator.batch_jobs"), 40u);
  EXPECT_GE(m.counters.at("condor.negotiator.packed"), 1u);
  EXPECT_GE(m.counters.at("condor.negotiator.batch_jobs"),
            m.counters.at("condor.negotiator.packed"));
}

TEST(BatchNegotiation, FifoRunsCarryNoBatchInstruments) {
  ExperimentConfig config = batch_config(42);
  config.negotiation = condor::NegotiationConfig{};  // default: fifo
  const ExperimentResult r = run(config, 20);
  ASSERT_NE(r.telemetry, nullptr);
  const auto& m = r.telemetry->metrics;
  EXPECT_FALSE(m.counters.contains("condor.negotiator.batch_jobs"));
  EXPECT_FALSE(m.counters.contains("condor.negotiator.packed"));
  EXPECT_FALSE(m.counters.contains("condor.negotiator.occupancy_rejected"));
  EXPECT_FALSE(m.histograms.contains("condor.negotiator.match_latency"));
  // The shared instruments are still there.
  EXPECT_TRUE(m.counters.contains("condor.negotiator.cycles"));
  EXPECT_TRUE(m.counters.contains("condor.negotiator.matches"));
}

TEST(BatchNegotiation, MetricsFilterSelectsNegotiatorInstruments) {
  const ExperimentResult r = run(batch_config(42), 20);
  ASSERT_NE(r.telemetry, nullptr);
  const auto filtered =
      obs::filter_metrics(r.telemetry->metrics, {"condor.negotiator"});
  EXPECT_TRUE(filtered.counters.contains("condor.negotiator.batch_jobs"));
  EXPECT_TRUE(filtered.histograms.contains("condor.negotiator.match_latency"));
  for (const auto& [name, value] : filtered.counters) {
    EXPECT_EQ(name.rfind("condor.negotiator", 0), 0u) << name;
  }
}

TEST(BatchNegotiation, AllStacksCompleteUnderBatch) {
  for (const StackConfig stack :
       {StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK}) {
    SCOPED_TRACE(stack_config_name(stack));
    ExperimentConfig config = batch_config(1234);
    config.stack = stack;
    config.telemetry = false;
    const ExperimentResult r = run(config, 24);
    EXPECT_EQ(r.jobs_completed, 24u);
    EXPECT_EQ(r.jobs_failed, 0u);
  }
}

}  // namespace
}  // namespace phisched::cluster

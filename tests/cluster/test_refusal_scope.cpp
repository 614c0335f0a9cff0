// Refusal scope: a dispatcher reports a node-wide refusal as
// DispatchResult::kNodeClosed, and the cycle then refuses every later
// claim on that machine without calling the dispatcher or touching the
// job. The skip must change nothing but the work done:
//   - two sides run identical seeded MC cycles against stale machine
//     ads; one side's dispatcher reports each refusal's true scope, the
//     other reports every refusal job-scoped. Accepted dispatches,
//     outcomes, RNG state and job records must agree after every cycle;
//   - in the full stack, a gang job refused for want of free cards must
//     not close a node that still has a free card for a one-card job.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "classad/parser.hpp"
#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "condor/ads.hpp"
#include "condor/strategy.hpp"
#include "sim/simulator.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

using condor::DispatchResult;

/// One side: a schedd, the cycle RNG, and an MC dispatcher over the
/// nodes' true card and slot occupancy.
struct Side {
  Side(std::uint64_t seed, bool report_scope,
       const std::vector<int>& node_cards, const std::vector<int>& node_slots)
      : schedd(sim),
        rng(seed),
        scoped(report_scope),
        cards(node_cards),
        slots(node_slots),
        busy_cards(node_cards.size()),
        busy_slots(node_cards.size()),
        partly_refused(node_cards.size()) {}

  DispatchResult attempt(JobId job, NodeId node) {
    ++calls;
    const auto n = static_cast<std::size_t>(node);
    const int want = schedd.record(job).requests().devices;
    const int free_cards = cards[n] - busy_cards[n];
    if (busy_slots[n] >= slots[n] || free_cards == 0) {
      return scoped ? DispatchResult::kNodeClosed : DispatchResult::kRefused;
    }
    if (free_cards < want) {
      partly_refused[n] = 1;
      return DispatchResult::kRefused;
    }
    if (partly_refused[n] != 0) ++accepted_after_partial_refusal;
    busy_cards[n] += want;
    busy_slots[n] += 1;
    running.emplace_back(job, node, want);
    accepted.emplace_back(job, node);
    return DispatchResult::kAccepted;
  }

  void finish(std::size_t i) {
    const auto [job, node, held] = running[i];
    const auto n = static_cast<std::size_t>(node);
    busy_cards[n] -= held;
    busy_slots[n] -= 1;
    schedd.mark_running(job);
    schedd.mark_completed(job);
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
  }

  Simulator sim;
  condor::Schedd schedd;
  Rng rng;
  bool scoped;
  std::vector<int> cards;
  std::vector<int> slots;
  std::vector<int> busy_cards;
  std::vector<int> busy_slots;
  std::vector<char> partly_refused;  ///< this cycle, per node
  std::vector<std::tuple<JobId, NodeId, int>> running;
  std::vector<std::pair<JobId, NodeId>> accepted;
  std::size_t calls = 0;
  std::size_t accepted_after_partial_refusal = 0;
  condor::DispatchFn dispatch = [this](JobId job, NodeId node) {
    return attempt(job, node);
  };
};

/// The machine ads a collector would publish for `side`'s occupancy.
condor::MachineAds publish(const Side& side) {
  condor::MachineAds ads;
  for (std::size_t n = 0; n < side.cards.size(); ++n) {
    auto ad = std::make_shared<classad::ClassAd>();
    const auto node = static_cast<NodeId>(n);
    ad->insert_string(condor::kAttrName, condor::machine_name(node));
    ad->insert_integer(condor::kAttrFreeSlots,
                       side.slots[n] - side.busy_slots[n]);
    ad->insert_integer(condor::kAttrPhiDevices, side.cards[n]);
    ad->insert_integer(condor::kAttrPhiFreeDevices,
                       side.cards[n] - side.busy_cards[n]);
    // Room for the batch packer's budgets; MC matching ignores memory.
    ad->insert_integer(condor::kAttrPhiFreeMemory, 7680);
    ad->insert_integer(condor::kAttrPhiTotalMemory, 7680);
    ads.emplace_back(node, std::move(ad));
  }
  return ads;
}

class RefusalScope
    : public ::testing::TestWithParam<std::tuple<condor::MachineOrder, bool>> {};

TEST_P(RefusalScope, NodeWideRefusalsChangeNothingButTheCalls) {
  const auto [order, batch] = GetParam();
  const condor::NegotiationConfig negotiation =
      batch ? condor::parse_negotiation("batch") : condor::NegotiationConfig{};
  const classad::ExprPtr requirements =
      classad::parse(condor::exclusive_requirements());
  std::size_t scoped_calls = 0;
  std::size_t plain_calls = 0;
  std::size_t accepted_after_partial_refusal = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng gen = Rng(seed).child("refusal-scope");
    std::vector<int> cards;
    std::vector<int> slots;
    const auto nodes = static_cast<std::size_t>(gen.uniform_int(1, 5));
    for (std::size_t n = 0; n < nodes; ++n) {
      cards.push_back(n == 0 ? 2 : static_cast<int>(gen.uniform_int(1, 4)));
      slots.push_back(static_cast<int>(gen.uniform_int(1, 4)));
    }
    const auto scoped_strategy = condor::make_match_strategy(negotiation);
    const auto plain_strategy = condor::make_match_strategy(negotiation);
    Side scoped(seed, true, cards, slots);
    Side plain(seed, false, cards, slots);
    JobId next_id = 0;
    auto submit = [&](std::int64_t n) {
      for (std::int64_t i = 0; i < n; ++i, ++next_id) {
        workload::JobSpec spec;
        spec.id = next_id;
        spec.mem_req_mib = 500 * gen.uniform_int(1, 4);
        spec.threads_req = 60;
        spec.devices_req = gen.bernoulli(0.35) ? 2 : 1;
        const classad::ClassAd ad = condor::make_job_ad(spec, requirements);
        scoped.schedd.submit(next_id, ad);
        plain.schedd.submit(next_id, ad);
      }
    };
    submit(25);
    condor::MachineAds advertised = publish(scoped);

    for (int c = 0; c < 12; ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cycle " +
                   std::to_string(c));
      // The collector refreshes now and then; in between, its ads are
      // stale and dispatches get refused.
      if (gen.bernoulli(0.3)) advertised = publish(scoped);
      condor::MachineAds scoped_machines = advertised;
      condor::MachineAds plain_machines = advertised;
      const std::vector<JobId> pending =
          condor::ordered_pending(scoped.schedd, scoped.schedd.pending());
      ASSERT_EQ(pending, condor::ordered_pending(plain.schedd,
                                                 plain.schedd.pending()));
      for (Side* side : {&scoped, &plain}) {
        std::fill(side->partly_refused.begin(), side->partly_refused.end(), 0);
      }

      condor::MatchCycle scoped_cycle{
          scoped.schedd,   scoped.rng, order, false, scoped_machines,
          pending,         scoped.dispatch,   0.0,   false};
      condor::MatchCycle plain_cycle{
          plain.schedd,   plain.rng, order, false, plain_machines,
          pending,        plain.dispatch,  0.0,   false};
      const condor::CycleOutcome got = scoped_strategy->run(scoped_cycle);
      const condor::CycleOutcome want = plain_strategy->run(plain_cycle);

      ASSERT_EQ(scoped.accepted, plain.accepted);
      ASSERT_EQ(got.matches, want.matches);
      ASSERT_EQ(got.rejected_dispatches, want.rejected_dispatches);
      ASSERT_EQ(got.batch_jobs, want.batch_jobs);
      ASSERT_EQ(got.packed, want.packed);
      ASSERT_EQ(got.occupancy_rejected, want.occupancy_rejected);
      ASSERT_TRUE(scoped.rng.engine() == plain.rng.engine());
      for (JobId id = 0; id < next_id; ++id) {
        const condor::JobRecord& a = scoped.schedd.record(id);
        const condor::JobRecord& b = plain.schedd.record(id);
        ASSERT_EQ(a.state, b.state) << "job " << id;
        ASSERT_EQ(a.node, b.node) << "job " << id;
        ASSERT_EQ(a.ad.to_string(), b.ad.to_string()) << "job " << id;
      }

      // Between cycles some running jobs finish, and new jobs arrive.
      for (std::size_t i = scoped.running.size(); i-- > 0;) {
        if (!gen.bernoulli(0.4)) continue;
        scoped.finish(i);
        plain.finish(i);
      }
      submit(gen.uniform_int(0, 6));
    }
    scoped_calls += scoped.calls;
    plain_calls += plain.calls;
    accepted_after_partial_refusal += scoped.accepted_after_partial_refusal;
  }
  // The battery must skip real work and, in the FIFO walk, reach the
  // gang case: a node that refused a gang job for want of cards later
  // took a narrower one in the same cycle. (The batch strategy claims
  // its gang jobs after every single-card job.)
  EXPECT_LT(scoped_calls, plain_calls);
  if (!batch) {
    EXPECT_GT(accepted_after_partial_refusal, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndStrategies, RefusalScope,
    ::testing::Combine(::testing::Values(condor::MachineOrder::kFirstFit,
                                         condor::MachineOrder::kRandom),
                       ::testing::Bool()));

workload::JobSpec offload_job(JobId id, int devices, SimTime seconds) {
  workload::JobSpec job;
  job.id = id;
  job.mem_req_mib = 1000;
  job.threads_req = 60;
  job.devices_req = devices;
  std::vector<workload::Segment> segments;
  for (int d = 0; d < devices; ++d) {
    segments.push_back(workload::Segment::offload_async(seconds, 60, 800, d));
  }
  segments.push_back(workload::Segment::sync());
  job.profile = workload::OffloadProfile(segments);
  return job;
}

TEST(RefusalScope, RefusedGangLeavesTheNodeOpenToANarrowerJob) {
  // One 2-card node whose ad stays as of t=0 for the whole run. At the
  // first cycle job 0 takes a card; the gang (job 1) still matches the
  // stale ad but is refused, as only one card is left; that card must
  // still go to job 2 in the same cycle.
  ExperimentConfig config;
  config.node_count = 1;
  config.node_hw.phi_devices = 2;
  config.stack = StackConfig::kMC;
  config.ad_update_interval = 1000.0;
  Harness harness(config);
  harness.submit(offload_job(0, 1, 50.0));
  harness.submit(offload_job(1, 2, 20.0));
  harness.submit(offload_job(2, 1, 20.0));
  harness.run_until(0.0);
  EXPECT_EQ(harness.schedd().record(0).state, condor::JobState::kMatched);
  EXPECT_EQ(harness.schedd().record(1).state, condor::JobState::kPending);
  EXPECT_EQ(harness.schedd().record(2).state, condor::JobState::kMatched);
  const ExperimentResult r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, 3u);
}

}  // namespace
}  // namespace phisched::cluster

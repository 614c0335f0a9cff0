// Differential test of the autocluster FIFO walk: FifoStrategy (one
// candidate list per autocluster, refreshed only for machines a claim
// deducted from) against the per-job walk it replaced — choose_machine
// over every machine for every job — kept here as the reference. Both run
// on identical seeded random job and machine ads, and every cycle must
// produce the same (job -> node) dispatch sequence, the same
// CycleOutcome, the same deducted machine ads and the same RNG state.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "classad/parser.hpp"
#include "common/rng.hpp"
#include "condor/ads.hpp"
#include "condor/strategy.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

using Machines = MachineAds;

/// Requirements sources a job may carry. Each is parsed once into a
/// shared tree; a job may also get a private re-parse of the same source
/// (structurally equal, not shared).
const std::vector<std::string>& job_requirement_sources() {
  static const std::vector<std::string> kSources = {
      exclusive_requirements(),
      sharing_requirements(),
      arbitrary_requirements(),
      pinned_requirements(1),
      pinned_requirements(3),
      "false",
      // Bare references: RequestPhiMemory resolves in the job,
      // PhiFreeMemory in the machine unless the job shadows it.
      "PhiFreeMemory >= RequestPhiMemory && FreeSlots >= 1",
      // A missing job attribute (WantArch) against a machine string.
      "TARGET.Arch == MY.WantArch || isUndefined(MY.WantArch)",
      // Followed through a job attribute's own expression (Big).
      "MY.Big ? TARGET.PhiFreeMemory >= 4000 : TARGET.FreeSlots >= 1",
      "TARGET.FreeSlots >= MY.RequestPhiDevices && MY.RequestPhiThreads < 200",
  };
  return kSources;
}

/// Machine Requirements; the last three read the job (TARGET or a bare
/// name the machine lacks), which sends the walk down its per-job path.
const std::vector<std::string>& machine_requirement_sources() {
  static const std::vector<std::string> kSources = {
      "MY.FreeSlots >= 1",
      "FreeSlots >= 1 && PhiFreeMemory >= 500",
      "true",
      "TARGET.RequestPhiMemory <= MY.PhiFreeMemory",
      "isUndefined(TARGET.Owner) || TARGET.Owner != \"bob\"",
      "RequestPhiThreads < 200",
  };
  return kSources;
}

constexpr std::size_t kTargetReadingMachineReqs = 3;

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(Rng(seed).child("autocluster")) {
    for (const std::string& src : job_requirement_sources()) {
      job_trees_.push_back(classad::parse(src));
    }
    for (const std::string& src : machine_requirement_sources()) {
      machine_trees_.push_back(classad::parse(src));
    }
  }

  classad::ClassAd job(JobId id) {
    classad::ClassAd ad;
    ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
    const std::int64_t mems[] = {500, 1000, 2000, 4000};
    ad.insert_integer(kAttrRequestPhiMemory, mems[rng_.index(4)]);
    ad.insert_integer(kAttrRequestPhiThreads, 60 * (1 + rng_.uniform_int(0, 3)));
    ad.insert_integer(kAttrRequestPhiDevices, rng_.uniform_int(1, 2));
    if (rng_.bernoulli(0.5)) {
      ad.insert_string("Owner", rng_.bernoulli(0.5) ? "alice" : "bob");
    }
    if (rng_.bernoulli(0.3)) {
      ad.insert_string("WantArch", rng_.bernoulli(0.5) ? "k1om" : "x86_64");
    }
    if (rng_.bernoulli(0.3)) ad.insert_expr("Big", "RequestPhiMemory > 1500");
    if (rng_.bernoulli(0.1)) ad.insert_integer(kAttrPhiFreeMemory, 3000);
    if (rng_.bernoulli(0.4)) {
      ad.insert_expr("Rank", rng_.bernoulli(0.5) ? "TARGET.PhiFreeMemory"
                                                 : "-TARGET.FreeSlots");
    }
    if (rng_.bernoulli(0.2)) ad.insert_integer(kAttrJobPrio, rng_.uniform_int(-1, 1));
    set_requirements(ad);
    return ad;
  }

  /// Requirements: usually a shared tree, sometimes a private re-parse,
  /// sometimes none at all.
  void set_requirements(classad::ClassAd& ad) {
    const double roll = rng_.uniform_real(0.0, 1.0);
    if (roll < 0.05) {
      ad.erase(kAttrRequirements);
      return;
    }
    const std::size_t k = rng_.index(job_trees_.size());
    ad.insert(kAttrRequirements,
              roll < 0.8 ? job_trees_[k]
                         : classad::parse(job_requirement_sources()[k]));
  }

  Machines machines(bool target_reading) {
    Machines out;
    const auto count = static_cast<NodeId>(rng_.uniform_int(1, 6));
    for (NodeId n = 0; n < count; ++n) {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(n));
      ad.insert_integer(kAttrFreeSlots, rng_.uniform_int(0, 3));
      ad.insert_integer(kAttrPhiFreeMemory, 1000 * rng_.uniform_int(0, 8));
      ad.insert_integer(kAttrPhiFreeDevices, rng_.uniform_int(0, 2));
      ad.insert_string("Arch", rng_.bernoulli(0.5) ? "k1om" : "x86_64");
      const std::size_t plain =
          machine_trees_.size() - kTargetReadingMachineReqs;
      const std::size_t k =
          target_reading && rng_.bernoulli(0.5)
              ? plain + rng_.index(kTargetReadingMachineReqs)
              : rng_.index(plain);
      if (!rng_.bernoulli(0.1)) ad.insert(kAttrRequirements, machine_trees_[k]);
      out.emplace_back(n, std::make_shared<const classad::ClassAd>(std::move(ad)));
    }
    return out;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<classad::ExprPtr> job_trees_;
  std::vector<classad::ExprPtr> machine_trees_;
};

/// One side of the comparison: a schedd, the cycle RNG, and a dispatch
/// callback that refuses at random from its own stream.
struct Side {
  explicit Side(std::uint64_t seed)
      : schedd(sim), rng(seed), refusals(Rng(seed).child("refuse")) {}

  Simulator sim;
  Schedd schedd;
  Rng rng;
  Rng refusals;
  std::vector<std::tuple<JobId, NodeId, bool>> dispatched;
  DispatchFn dispatch = [this](JobId job, NodeId node) {
    const bool ok = !refusals.bernoulli(0.3);
    dispatched.emplace_back(job, node, ok);
    return ok ? DispatchResult::kAccepted : DispatchResult::kRefused;
  };
};

/// The per-job walk FifoStrategy replaced.
CycleOutcome reference_walk(MatchCycle& cycle) {
  CycleOutcome outcome;
  for (const JobId job_id : cycle.pending) {
    const JobRecord& rec = cycle.schedd.record(job_id);
    if (rec.state != JobState::kPending) continue;
    const auto chosen =
        choose_machine(rec.ad, cycle.machines, cycle.order, cycle.rng);
    if (!chosen.has_value()) continue;
    const NodeId node = cycle.machines[*chosen].first;
    cycle.schedd.mark_matched(job_id, node);
    if (cycle.dispatch(job_id, node) == DispatchResult::kAccepted) {
      ++outcome.matches;
      classad::ClassAd deducted = *cycle.machines[*chosen].second;
      deduct_from_ad(deducted, rec.ad, cycle.deduct_custom_resources);
      cycle.machines[*chosen].second =
          std::make_shared<const classad::ClassAd>(std::move(deducted));
    } else {
      ++outcome.rejected_dispatches;
      cycle.schedd.release_match(job_id);
    }
  }
  return outcome;
}

std::string render(const Machines& machines) {
  std::string out;
  for (const auto& [node, ad] : machines) {
    out += std::to_string(node) + ":\n" + ad->to_string();
  }
  return out;
}

class AutoclusterWalk
    : public ::testing::TestWithParam<std::tuple<MachineOrder, bool>> {};

TEST_P(AutoclusterWalk, MatchesPerJobReference) {
  const auto [order, deduct_custom] = GetParam();
  const auto strategy = make_match_strategy(NegotiationConfig{});
  std::size_t total_dispatches = 0;
  std::size_t fallback_cycles = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Generator gen(seed);
    Side ref(seed);
    Side fifo(seed);
    JobId next_id = 0;
    auto submit = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i, ++next_id) {
        const classad::ClassAd ad = gen.job(next_id);
        ref.schedd.submit(next_id, ad);
        fifo.schedd.submit(next_id, ad);
      }
    };
    submit(40);

    for (int c = 0; c < 8; ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cycle " +
                   std::to_string(c));
      const bool target_reading = gen.rng().bernoulli(0.3);
      Machines ref_machines = gen.machines(target_reading);
      // Both sides start from the same shared ads, as every reader of the
      // collector does; neither walk may write them.
      Machines fifo_machines = ref_machines;
      const Machines advertised = ref_machines;
      const std::string advertised_text = render(advertised);
      fallback_cycles += std::any_of(
          ref_machines.begin(), ref_machines.end(),
          [](const auto& m) { return m.second->reads_target(); });

      const std::vector<JobId> ref_pending =
          ordered_pending(ref.schedd, ref.schedd.pending());
      const std::vector<JobId> fifo_pending =
          ordered_pending(fifo.schedd, fifo.schedd.pending());
      ASSERT_EQ(ref_pending, fifo_pending);

      MatchCycle ref_cycle{ref.schedd,   ref.rng,     order,
                           deduct_custom, ref_machines, ref_pending,
                           ref.dispatch, 0.0,         false};
      MatchCycle fifo_cycle{fifo.schedd,   fifo.rng,      order,
                            deduct_custom, fifo_machines, fifo_pending,
                            fifo.dispatch, 0.0,           false};
      const CycleOutcome want = reference_walk(ref_cycle);
      const CycleOutcome got = strategy->run(fifo_cycle);

      ASSERT_EQ(fifo.dispatched, ref.dispatched);
      ASSERT_EQ(got.matches, want.matches);
      ASSERT_EQ(got.rejected_dispatches, want.rejected_dispatches);
      ASSERT_EQ(got.batch_jobs, want.batch_jobs);
      ASSERT_EQ(got.packed, want.packed);
      ASSERT_EQ(got.occupancy_rejected, want.occupancy_rejected);
      ASSERT_TRUE(fifo.rng.engine() == ref.rng.engine());
      ASSERT_EQ(render(fifo_machines), render(ref_machines));
      ASSERT_EQ(render(advertised), advertised_text);

      // Between cycles: matched jobs finish or come back with a fresh ad,
      // some pending jobs are edited, and new jobs arrive.
      for (const auto& [job, node, ok] : ref.dispatched) {
        if (!ok) continue;
        if (gen.rng().bernoulli(0.3)) {
          const classad::ClassAd ad = gen.job(job);
          ref.schedd.requeue(job, ad);
          fifo.schedd.requeue(job, ad);
        } else {
          for (Side* side : {&ref, &fifo}) {
            side->schedd.mark_running(job);
            side->schedd.mark_completed(job);
          }
        }
      }
      for (const JobId job : ref.schedd.pending()) {
        if (!gen.rng().bernoulli(0.1)) continue;
        classad::ClassAd ad = ref.schedd.record(job).ad;
        gen.set_requirements(ad);
        const classad::ExprPtr reqs = ad.lookup(kAttrRequirements);
        const classad::ExprPtr mem = classad::make_literal(
            classad::Value::integer(500 * gen.rng().uniform_int(1, 8)));
        for (Side* side : {&ref, &fifo}) {
          if (reqs != nullptr) side->schedd.qedit(job, kAttrRequirements, reqs);
          side->schedd.qedit(job, kAttrRequestPhiMemory, mem);
        }
      }
      total_dispatches += ref.dispatched.size();
      ref.dispatched.clear();
      fifo.dispatched.clear();
      submit(static_cast<std::size_t>(gen.rng().uniform_int(0, 10)));
    }
  }
  // The battery must exercise both paths and real dispatch traffic.
  EXPECT_GT(total_dispatches, 200u);
  EXPECT_GT(fallback_cycles, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndDeduction, AutoclusterWalk,
    ::testing::Combine(::testing::Values(MachineOrder::kFirstFit,
                                         MachineOrder::kRandom,
                                         MachineOrder::kBestRank),
                       ::testing::Bool()));

}  // namespace
}  // namespace phisched::condor

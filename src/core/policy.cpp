#include "core/policy.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.hpp"

namespace phisched::core {

namespace {

class KnapsackAssignmentPolicy final : public AssignmentPolicy {
 public:
  explicit KnapsackAssignmentPolicy(KnapsackPolicyConfig config)
      : config_(config), solver_(knapsack::make_solver(config.solver)) {}

  std::vector<Assignment> assign(
      const std::vector<PendingJobView>& pending,
      const std::vector<DeviceView>& devices) override {
    std::vector<Assignment> out;
    std::vector<bool> taken(pending.size(), false);

    // The smallest declared request in each dimension: a card below it
    // would reject every job in the candidate scan, so it is skipped.
    MiB min_mem = std::numeric_limits<MiB>::max();
    ThreadCount min_threads = std::numeric_limits<ThreadCount>::max();
    for (const PendingJobView& job : pending) {
      min_mem = std::min(min_mem, job.mem_req_mib);
      min_threads = std::min(min_threads, job.threads_req);
    }

    // Fig. 4: fill the knapsacks (devices) one after another; each fill
    // consumes jobs from the remaining pending set.
    for (const DeviceView& dev : devices) {
      if (dev.free_memory_mib < config_.quantum_mib) continue;
      if (dev.free_memory_mib < min_mem || dev.thread_budget < min_threads ||
          dev.hw_threads < min_threads) {
        continue;
      }

      knapsack::Problem problem;
      problem.capacity_mib = dev.free_memory_mib;
      problem.thread_capacity = dev.thread_budget;
      problem.quantum_mib = config_.quantum_mib;

      // FIFO prefix of the not-yet-assigned jobs that could fit at all.
      std::vector<std::size_t> candidate_index;  // into `pending`
      for (std::size_t i = 0;
           i < pending.size() && candidate_index.size() < config_.max_candidates;
           ++i) {
        if (taken[i]) continue;
        if (pending[i].mem_req_mib > dev.free_memory_mib) continue;
        if (pending[i].threads_req > dev.thread_budget) continue;
        // A job wider than the card can never run there, even once the
        // device drains — overcommit budgets don't lift that ceiling.
        if (pending[i].threads_req > dev.hw_threads) continue;
        // Interference awareness: a job whose declared bandwidth share
        // alone exceeds this card's headroom would saturate its ring —
        // keep it out of the knapsack entirely.
        if (dev.bw_budget >= 0.0 && pending[i].bw_req > dev.bw_budget) {
          continue;
        }
        knapsack::Item item;
        item.weight_mib = pending[i].mem_req_mib;
        item.threads = pending[i].threads_req;
        item.value = knapsack::job_value(config_.value_function,
                                         pending[i].threads_req,
                                         dev.hw_threads);
        item.tag = i;
        problem.items.push_back(item);
        candidate_index.push_back(i);
      }
      if (problem.items.empty()) continue;

      const knapsack::Solution sol = solver_->solve(problem);
      // The memory/thread solver knows nothing of bandwidth; trim its
      // picks, in deterministic pick order, so the set's summed declared
      // shares stay under the device's headroom.
      double bw_left = dev.bw_budget;
      for (std::size_t pick : sol.picks) {
        const std::size_t i = problem.items[pick].tag;
        if (dev.bw_budget >= 0.0) {
          if (pending[i].bw_req > bw_left) continue;
          bw_left -= pending[i].bw_req;
        }
        PHISCHED_CHECK(!taken[i], "knapsack picked a job twice");
        taken[i] = true;
        out.push_back(Assignment{pending[i].id, dev.addr});
      }
    }
    return out;
  }

  std::string name() const override {
    return std::string("knapsack/") +
           knapsack::solver_kind_name(config_.solver) + "/" +
           knapsack::value_function_name(config_.value_function);
  }

 private:
  KnapsackPolicyConfig config_;
  std::unique_ptr<knapsack::Solver> solver_;
};

/// Shared scaffolding for the per-job greedy policies: walks jobs in FIFO
/// order and asks `choose` for a device index given the current free list.
class GreedyPolicy : public AssignmentPolicy {
 public:
  std::vector<Assignment> assign(
      const std::vector<PendingJobView>& pending,
      const std::vector<DeviceView>& devices) override {
    std::vector<MiB> free(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      free[d] = devices[d].free_memory_mib;
    }
    std::vector<Assignment> out;
    for (const PendingJobView& job : pending) {
      const std::optional<std::size_t> d = choose(job, devices, free);
      if (!d.has_value()) continue;
      PHISCHED_CHECK(free[*d] >= job.mem_req_mib, "greedy policy overpacked");
      free[*d] -= job.mem_req_mib;
      out.push_back(Assignment{job.id, devices[*d].addr});
    }
    return out;
  }

 protected:
  [[nodiscard]] virtual std::optional<std::size_t> choose(
      const PendingJobView& job, const std::vector<DeviceView>& devices,
      const std::vector<MiB>& free) = 0;
};

class FirstFitPolicy final : public GreedyPolicy {
 public:
  std::string name() const override { return "first-fit"; }

 protected:
  std::optional<std::size_t> choose(const PendingJobView& job,
                                    const std::vector<DeviceView>& devices,
                                    const std::vector<MiB>& free) override {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (free[d] >= job.mem_req_mib &&
          job.threads_req <= devices[d].hw_threads) {
        return d;
      }
    }
    return std::nullopt;
  }
};

class BestFitPolicy final : public GreedyPolicy {
 public:
  std::string name() const override { return "best-fit"; }

 protected:
  std::optional<std::size_t> choose(const PendingJobView& job,
                                    const std::vector<DeviceView>& devices,
                                    const std::vector<MiB>& free) override {
    std::optional<std::size_t> best;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (free[d] < job.mem_req_mib) continue;
      if (job.threads_req > devices[d].hw_threads) continue;
      if (!best.has_value() || free[d] < free[*best]) best = d;
    }
    return best;
  }
};

class RandomPolicy final : public GreedyPolicy {
 public:
  explicit RandomPolicy(Rng rng) : rng_(rng) {}
  std::string name() const override { return "random"; }

 protected:
  std::optional<std::size_t> choose(const PendingJobView& job,
                                    const std::vector<DeviceView>& devices,
                                    const std::vector<MiB>& free) override {
    std::vector<std::size_t> fits;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (free[d] >= job.mem_req_mib &&
          job.threads_req <= devices[d].hw_threads) {
        fits.push_back(d);
      }
    }
    if (fits.empty()) return std::nullopt;
    return fits[rng_.index(fits.size())];
  }

 private:
  Rng rng_;
};

class OracleLptPolicy final : public AssignmentPolicy {
 public:
  std::vector<Assignment> assign(
      const std::vector<PendingJobView>& pending,
      const std::vector<DeviceView>& devices) override {
    std::vector<MiB> free(devices.size());
    std::vector<SimTime> load(devices.size(), 0.0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      free[d] = devices[d].free_memory_mib;
    }

    // Longest first; unknown durations (-1) sort to the back.
    std::vector<std::size_t> order(pending.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pending[a].expected_duration >
                              pending[b].expected_duration;
                     });

    std::vector<Assignment> out;
    for (std::size_t i : order) {
      const PendingJobView& job = pending[i];
      std::optional<std::size_t> best;
      for (std::size_t d = 0; d < devices.size(); ++d) {
        if (free[d] < job.mem_req_mib) continue;
        if (job.threads_req > devices[d].hw_threads) continue;
        if (!best.has_value() || load[d] < load[*best]) best = d;
      }
      if (!best.has_value()) continue;
      free[*best] -= job.mem_req_mib;
      load[*best] += std::max(job.expected_duration, 0.0);
      out.push_back(Assignment{job.id, devices[*best].addr});
    }
    return out;
  }

  std::string name() const override { return "oracle-lpt"; }
};

}  // namespace

std::unique_ptr<AssignmentPolicy> make_knapsack_policy(
    KnapsackPolicyConfig config) {
  return std::make_unique<KnapsackAssignmentPolicy>(config);
}

std::unique_ptr<AssignmentPolicy> make_first_fit_policy() {
  return std::make_unique<FirstFitPolicy>();
}

std::unique_ptr<AssignmentPolicy> make_best_fit_policy() {
  return std::make_unique<BestFitPolicy>();
}

std::unique_ptr<AssignmentPolicy> make_random_policy(Rng rng) {
  return std::make_unique<RandomPolicy>(rng);
}

std::unique_ptr<AssignmentPolicy> make_oracle_lpt_policy() {
  return std::make_unique<OracleLptPolicy>();
}

}  // namespace phisched::core

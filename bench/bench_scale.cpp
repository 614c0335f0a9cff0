// Cluster-scale output gate: MCCK on the 1,000-node synthetic sweep
// (2,000 uniform jobs), run on the sequential engine.
//
// Two kinds of numbers come out, and the gate treats them differently:
//
//  * Simulation outputs (makespan, utilization, turnaround, event count)
//    are deterministic. bench/golden/BENCH_scale.json pins them, and the
//    CI perf gate diffs them at bench_diff's default tolerance, so a
//    behaviour change that only shows at cluster scale fails the build.
//  * Raw sequential events/sec is informational: it depends on the
//    machine, so the golden records whatever box generated it.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "workload/jobset.hpp"

namespace {

using namespace phisched;

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kJobs = 2000;

cluster::ExperimentConfig scale_config(std::uint64_t seed) {
  cluster::ExperimentConfig config;
  config.node_count = kNodes;
  config.stack = cluster::StackConfig::kMCCK;
  config.seed = seed;
  return config;
}

struct Timed {
  cluster::ExperimentResult result;
  double wall_s = 0.0;
};

Timed timed_run(std::uint64_t seed) {
  const auto jobs = workload::make_synthetic_jobset(
      workload::Distribution::kUniform, kJobs, Rng(seed).child("jobs"));
  const auto start = std::chrono::steady_clock::now();
  Timed t;
  t.result = bench::run_stack(scale_config(seed), jobs);
  t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return t;
}

std::map<std::string, double> run_seed(std::uint64_t seed) {
  const Timed seq = timed_run(seed);
  std::map<std::string, double> m;
  m["scale.makespan_s"] = seq.result.makespan;
  m["scale.core_utilization"] = seq.result.avg_core_utilization;
  m["scale.mean_turnaround_s"] = seq.result.mean_turnaround;
  m["scale.events"] = static_cast<double>(seq.result.events_processed);
  m["scale.seq_events_per_sec"] =
      static_cast<double>(seq.result.events_processed) / seq.wall_s;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phisched::bench;

  if (run_json_mode(argc, argv, "scale", run_seed)) return 0;

  print_header("Cluster scale: 1,000-node synthetic sweep",
               "engine scalability (enables Figs. 5-7 at cluster scale)");

  const Timed seq = timed_run(42);
  std::printf("%llu events in %.2f s (%.0f events/s), makespan %.1f s, "
              "utilization %s, mean turnaround %.1f s\n",
              static_cast<unsigned long long>(seq.result.events_processed),
              seq.wall_s,
              static_cast<double>(seq.result.events_processed) / seq.wall_s,
              seq.result.makespan, pct(seq.result.avg_core_utilization).c_str(),
              seq.result.mean_turnaround);
  return 0;
}

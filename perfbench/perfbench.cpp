// The repository benchmark: runs one named workload through the public
// cluster::Harness / cluster::Service API on the sequential engine, checks
// the simulated outputs, and prints one JSON line of metrics.
//
//   perfbench --workload paper|fleet|serve --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures an untraced
// half and a traced half (spans around every call into a layer) and prints
// the per-layer metrics. --work-dir receives the arrival trace of `serve`
// and the span CSV. README.md in this directory explains the choices.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "classad/classad.hpp"
#include "cluster/experiment.hpp"
#include "cluster/harness.hpp"
#include "cluster/node.hpp"
#include "cluster/service.hpp"
#include "common/rng.hpp"
#include "condor/ads.hpp"
#include "core/policy.hpp"
#include "phi/capability.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "workload/jobset.hpp"

namespace {

using namespace phisched;
using perfbench::Stamps;
using perfbench::Tracer;

constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kBatchJobs = 1000;
constexpr const char* kFleet = "2x5110P+2x7120P";
/// Declared bandwidth of the fleet's streaming half (as bench_hetero):
/// two fit under a card's saturation budget, three do not.
constexpr double kStreamingBw = 80000.0;
/// serve: Poisson arrivals below the 8-node MCCK capacity (README.md).
constexpr double kServeRate = 0.18;
constexpr double kServeHorizon = 20000.0;
/// serve's SLA window, also the bucket of its host-time shape.
constexpr double kWindow = 60.0;
/// Set-ups after the measured iterations, in blocks with a calibration
/// point after each; setup_s is the median of the scaled set-ups.
constexpr int kSetupBlocks = 20;
constexpr int kSetupsPerBlock = 10;
/// Kernel runs per calibration point; the point is their median.
constexpr int kCalibrationReps = 3;
/// Kernel time that defines the reference host speed (README.md).
constexpr double kCalibrationNominalS = 0.030;
/// Table II makespan reductions vs MC at the calibration seed
/// (EXPERIMENTS.md), in percent.
constexpr double kRefReductionMcc = -26.5;
constexpr double kRefReductionMcck = -44.4;

double host_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// ----------------------------------------------------------- calibration

/// A fixed amount of work on a cache-resident std::map (lookups, erases,
/// node allocations), independent of the program under test. The host
/// slows it down with the simulator: both are bound by the core's caches,
/// which the host's other tenants share (README.md, "Host speed").
double calibration_kernel_s() {
  static volatile std::uint64_t sink = 0;
  const double t0 = host_s();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 8000; ++i) m[next() % 100000] = i;
  std::uint64_t acc = 0;
  for (std::uint64_t r = 0; r < 200000; ++r) {
    const auto it = m.lower_bound(next() % 100000);
    if (it == m.end()) continue;
    acc += it->second;
    if (r % 8 == 0) {
      m.erase(it);
      m[next() % 100000] = r;
    }
  }
  sink = sink + acc;
  return host_s() - t0;
}

/// Calibration points taken between timed phases. A point is the median
/// of a few kernel runs; the scale of the phase between two points is their
/// mean ÷ the reference kernel time (above 1: the host ran slower).
class Calibration {
 public:
  Calibration() {
    calibration_kernel_s();  // warm-up
    point_ = point();
  }

  /// Takes a point; returns the scale since the previous one.
  double next_scale() {
    const double after = point();
    const double scale = (point_ + after) / 2.0 / kCalibrationNominalS;
    point_ = after;
    return scale;
  }

 private:
  static double point() {
    std::vector<double> reps;
    for (int k = 0; k < kCalibrationReps; ++k) {
      reps.push_back(calibration_kernel_s());
    }
    return perfbench::median(std::move(reps));
  }

  double point_ = 0.0;
};

// ---------------------------------------------------------------- inputs

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

struct Leg {
  std::string name;
  cluster::ExperimentConfig config;
};

cluster::ExperimentConfig base_config(cluster::StackConfig stack,
                                      std::uint64_t seed) {
  cluster::ExperimentConfig config;
  config.node_count = kNodes;
  config.stack = stack;
  config.seed = seed;
  return config;
}

std::vector<Leg> make_legs(const std::string& workload, std::uint64_t seed) {
  using cluster::StackConfig;
  if (workload == "paper") {
    return {{"MC", base_config(StackConfig::kMC, seed)},
            {"MCC", base_config(StackConfig::kMCC, seed)},
            {"MCCK", base_config(StackConfig::kMCCK, seed)}};
  }
  cluster::ExperimentConfig config = base_config(StackConfig::kMCCK, seed);
  if (workload == "fleet") {
    config.devices = phi::parse_device_spec(kFleet);
    config.mem_bw.contention = true;
    config.pcie.contention = true;
    config.pcie_switch.enabled = true;
  }
  return {{"MCCK", config}};
}

workload::JobSet make_jobs(const std::string& workload, std::uint64_t seed,
                           std::size_t count) {
  workload::JobSet jobs =
      workload::make_real_jobset(count, Rng(seed).child("jobs"));
  if (workload == "fleet") {
    for (std::size_t i = 0; i < jobs.size(); i += 2) {
      jobs[i].mem_bw_mib_s = kStreamingBw;
    }
  }
  return jobs;
}

std::vector<double> make_arrivals(std::uint64_t seed) {
  Rng rng = Rng(seed).child("arrivals");
  std::vector<double> times;
  for (double t = rng.exponential(kServeRate); t < kServeHorizon;
       t += rng.exponential(kServeRate)) {
    times.push_back(t);
  }
  return times;
}

/// serve replays its arrivals from this file. It depends only on the seed,
/// so run() writes it once, before any timed set-up.
std::string arrivals_path(const Options& opt) {
  return opt.work_dir + "/perfbench-arrivals-" + std::to_string(opt.seed) +
         ".txt";
}

void write_arrivals(const Options& opt) {
  const std::string path = arrivals_path(opt);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const double t : make_arrivals(opt.seed)) std::fprintf(f, "%.17g\n", t);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------ fingerprint

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

template <typename T>
void fnv(std::uint64_t& h, const T& value) {
  fnv(h, &value, sizeof(T));
}

/// The simulated outputs of one leg that must repeat bit for bit.
struct Fingerprint {
  std::string leg;
  double makespan = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t pins = 0;
  std::uint64_t offloads = 0;
  std::uint64_t records = 0;  ///< hash of the per-job terminal records

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

void print_fingerprint(const char* label, const Fingerprint& f) {
  std::fprintf(stderr,
               "%s {\"%s\", %.17g, %" PRIu64 ", %" PRIu64 ", %" PRIu64
               ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
               ", %" PRIu64 "ull},\n",
               label, f.leg.c_str(), f.makespan, f.completed, f.failed,
               f.events, f.cycles, f.matches, f.pins, f.offloads, f.records);
}

/// Fingerprints at kDefaultSeed. After an intended model change, run the
/// workload at seed 42: the mismatch prints the new values as "got" rows in
/// exactly this form, ready to paste here.
const std::map<std::string, std::vector<Fingerprint>>& expected() {
  static const std::map<std::string, std::vector<Fingerprint>> table = {
      {"paper",
       {{"MC", 8286.2080632237721, 1000, 0, 13692, 1658, 1000, 0, 6017,
         9183466400728524989ull},
        {"MCC", 6091.3702873084612, 1000, 0, 13253, 1219, 1000, 0, 6017,
         5631695372571393608ull},
        {"MCCK", 4607.5597739246878, 1000, 0, 12956, 922, 1000, 1000, 6017,
         15816487206489263742ull}}},
      {"fleet",
       {{"MCCK", 1208.5155030913525, 1000, 0, 24310, 242, 1000, 1000, 6017,
         9207620825468058235ull}}},
      {"serve",
       {{"MCCK", 20077.975336522519, 3691, 0, 52182, 4017, 3691, 3691, 22237,
         11080672536545153905ull}}},
  };
  return table;
}

// ------------------------------------------------------------- one run

/// Counters the traced run takes at the benchmark's call boundaries.
struct LayerCounts {
  std::uint64_t assign_calls = 0;
  std::uint64_t jobs_offered = 0;
  std::uint64_t pins = 0;
  std::uint64_t cycle_steps = 0;
  std::uint64_t steps = 0;
  double pending_walked = 0.0;
  std::vector<double> pending_samples;
};

/// Times every assign() of the add-on's knapsack policy; otherwise it
/// forwards, so a run with it installed must reproduce the fingerprint.
class TimedPolicy final : public core::AssignmentPolicy {
 public:
  TimedPolicy(std::unique_ptr<core::AssignmentPolicy> inner,
              LayerCounts& counts, Tracer& tracer)
      : inner_(std::move(inner)), counts_(counts), tracer_(tracer) {}

  std::vector<core::Assignment> assign(
      const std::vector<core::PendingJobView>& pending,
      const std::vector<core::DeviceView>& devices) override {
    const int span = tracer_.begin("core.assign");
    std::vector<core::Assignment> out = inner_->assign(pending, devices);
    tracer_.end(span);
    ++counts_.assign_calls;
    counts_.jobs_offered += pending.size();
    counts_.pins += out.size();
    return out;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::AssignmentPolicy> inner_;
  LayerCounts& counts_;
  Tracer& tracer_;
};

struct LegRun {
  std::string name;
  cluster::ExperimentResult result;
  Fingerprint fingerprint;
  std::size_t terminal = 0;  ///< terminal records observed
  double build_s = 0.0;
  double submit_s = 0.0;
  double run_s = 0.0;
  double result_s = 0.0;
  double scale = 1.0;  ///< host scale around the drive (Calibration)
};

struct Iteration {
  double generate_s = 0.0;
  double setup_s = 0.0;
  /// Host slowness while driving: the legs' scales weighted by run_s.
  double host_scale = 1.0;
  std::size_t offered = 0;
  std::vector<LegRun> legs;
  // serve only
  Stamps stamps;  ///< (simulated, host) at every arrival
  std::size_t windows = 0;
  double wait_p99 = 0.0;
  std::uint64_t rejected = 0;
};

void fill_fingerprint(LegRun& leg, std::uint64_t records) {
  const cluster::ExperimentResult& r = leg.result;
  leg.fingerprint = Fingerprint{leg.name,          r.makespan,
                                r.jobs_completed,  r.jobs_failed,
                                r.events_processed, r.negotiation_cycles,
                                r.matches,         r.addon_pins,
                                r.offloads_started, records};
}

/// Everything a closed batch needs between set-up and driving.
struct BatchStack {
  std::vector<Leg> legs;
  std::vector<std::unique_ptr<cluster::Harness>> harnesses;
  std::vector<std::uint64_t> records;
};

/// Job generation, stack construction and submit: the set-up phase.
void setup_batch(const Options& opt, bool traced, LayerCounts* counts,
                 Tracer* tracer, BatchStack& stack, Iteration& it) {
  const double t0 = host_s();
  const workload::JobSet jobs = make_jobs(opt.workload, opt.seed, kBatchJobs);
  it.generate_s = host_s() - t0;
  stack.legs = make_legs(opt.workload, opt.seed);
  stack.records.assign(stack.legs.size(), kFnvOffset);
  it.legs.resize(stack.legs.size());
  for (std::size_t i = 0; i < stack.legs.size(); ++i) {
    Leg& leg = stack.legs[i];
    LegRun& run = it.legs[i];
    run.name = leg.name;
    if (traced) {
      leg.config.telemetry = true;
      if (leg.config.stack == cluster::StackConfig::kMCCK) {
        const core::KnapsackPolicyConfig knapsack = leg.config.knapsack;
        leg.config.policy_factory = [knapsack, counts, tracer] {
          return std::make_unique<TimedPolicy>(
              core::make_knapsack_policy(knapsack), *counts, *tracer);
        };
      }
    }
    const double b0 = host_s();
    auto harness = std::make_unique<cluster::Harness>(leg.config);
    const double b1 = host_s();
    std::uint64_t* hash = &stack.records[i];
    harness->set_terminal_observer([hash, &run](const condor::JobRecord& rec) {
      fnv(*hash, rec.id);
      fnv(*hash, rec.state);
      fnv(*hash, rec.node);
      fnv(*hash, rec.submit_time);
      fnv(*hash, rec.start_time);
      fnv(*hash, rec.finish_time);
      fnv(*hash, rec.retries);
      ++run.terminal;
    });
    harness->submit(jobs);
    run.build_s = b1 - b0;
    run.submit_s = host_s() - b1;
    it.offered += jobs.size();
    stack.harnesses.push_back(std::move(harness));
  }
  it.setup_s = host_s() - t0;
}

/// Untraced drive: one run_to_completion() per leg.
void drive_batch(BatchStack& stack, Iteration& it, Calibration& cal) {
  for (std::size_t i = 0; i < stack.legs.size(); ++i) {
    const double t0 = host_s();
    it.legs[i].result = stack.harnesses[i]->run_to_completion();
    it.legs[i].run_s = host_s() - t0;
    it.legs[i].scale = cal.next_scale();
  }
}

/// Traced drive: one span per step(), renamed "condor.cycle" when the step
/// ran a negotiation cycle; core.assign spans nest inside those.
void drive_batch_steps(BatchStack& stack, Iteration& it, LayerCounts& counts,
                       Tracer& tracer, Calibration& cal) {
  for (std::size_t i = 0; i < stack.legs.size(); ++i) {
    cluster::Harness& h = *stack.harnesses[i];
    LegRun& run = it.legs[i];
    const double interval = stack.legs[i].config.negotiation_interval;
    const double t0 = host_s();
    // In a closed batch without retries the pending queue changes only
    // inside cycles, so the depth after one cycle is the next one's walk.
    double pending = static_cast<double>(h.jobs_pending());
    while (true) {
      const int span = tracer.begin("sim.step");
      if (!h.step()) {
        tracer.cancel();
        break;
      }
      tracer.end(span);
      ++counts.steps;
      if (perfbench::is_cycle_step(h.now(), interval)) {
        tracer.rename(span, "condor.cycle");
        ++counts.cycle_steps;
        counts.pending_walked += pending;
        pending = static_cast<double>(h.jobs_pending());
      }
    }
    const double t1 = host_s();
    const int span = tracer.begin("cluster.result");
    run.result = h.run_to_completion();
    tracer.end(span);
    run.run_s = t1 - t0;
    run.result_s = host_s() - t1;
    run.scale = cal.next_scale();
  }
}

void finish_batch(BatchStack& stack, Iteration& it) {
  for (std::size_t i = 0; i < stack.legs.size(); ++i) {
    fill_fingerprint(it.legs[i], stack.records[i]);
  }
}

/// serve: arrivals and jobs are generated here and handed to the Service
/// as a replayed trace plus a job factory.
struct ServeStack {
  std::vector<double> arrivals;
  workload::JobSet jobs;
  std::unique_ptr<cluster::Service> service;
  // Filled by the job factory while the service runs.
  Stamps stamps;
  std::vector<double> pending_samples;
  bool sample_pending = false;
  bool overrun = false;
};

void setup_serve(const Options& opt, bool traced, LayerCounts* counts,
                 Tracer* tracer, ServeStack& stack, Iteration& it) {
  const double t0 = host_s();
  stack.arrivals = make_arrivals(opt.seed);
  stack.jobs = make_jobs(opt.workload, opt.seed, stack.arrivals.size());
  it.generate_s = host_s() - t0;
  it.offered = stack.arrivals.size();

  cluster::ServiceConfig config;
  config.cluster = base_config(cluster::StackConfig::kMCCK, opt.seed);
  config.arrivals.kind = workload::ArrivalKind::kTrace;
  config.arrivals.trace_file = arrivals_path(opt);
  config.horizon_s = kServeHorizon;
  config.window_s = kWindow;
  config.drain = true;
  stack.sample_pending = traced;
  if (traced) {
    config.cluster.telemetry = true;
    const core::KnapsackPolicyConfig knapsack = config.cluster.knapsack;
    config.cluster.policy_factory = [knapsack, counts, tracer] {
      return std::make_unique<TimedPolicy>(core::make_knapsack_policy(knapsack),
                                           *counts, *tracer);
    };
  }
  ServeStack* s = &stack;
  config.job_factory = [s](JobId id, Rng&) {
    cluster::Harness& h = s->service->harness();
    s->stamps.emplace_back(h.now(), host_s());
    if (s->sample_pending) {
      s->pending_samples.push_back(static_cast<double>(h.jobs_pending()));
    }
    if (id >= s->jobs.size()) {
      s->overrun = true;
      return s->jobs.back();
    }
    return s->jobs[id];
  };
  it.legs.resize(1);
  it.legs[0].name = "MCCK";
  const double b0 = host_s();
  stack.service = std::make_unique<cluster::Service>(config);
  it.legs[0].build_s = host_s() - b0;
  it.setup_s = host_s() - t0;
}

void drive_serve(ServeStack& stack, Iteration& it, Tracer* tracer,
                 Calibration& cal) {
  LegRun& run = it.legs[0];
  const double t0 = host_s();
  stack.stamps.emplace_back(0.0, t0);
  const int span = tracer != nullptr ? tracer->begin("serve.run") : -1;
  cluster::ServiceResult result = stack.service->run();
  if (tracer != nullptr) tracer->end(span);
  run.run_s = host_s() - t0;
  run.scale = cal.next_scale();
  run.result = result.cluster;
  it.stamps = std::move(stack.stamps);
  run.terminal = result.cluster.jobs_completed + result.cluster.jobs_failed;

  // No per-job records here: the Service owns the terminal observer, so
  // the hash covers every closed SLA window and the admission totals.
  std::uint64_t h = kFnvOffset;
  for (const cluster::ServiceWindow& w : result.windows) {
    fnv(h, w.index);
    for (const auto& [key, value] : w.metrics) {
      fnv(h, key.data(), key.size());
      fnv(h, value);
    }
  }
  fnv(h, result.admission.offered);
  fnv(h, result.admission.admitted);
  fnv(h, result.admission.rejected_total());
  fill_fingerprint(run, h);

  it.windows = result.windows.size();
  it.rejected = result.admission.rejected_total() + result.admission.dropped;
  if (!result.windows.empty()) {
    it.wait_p99 = result.windows.back().metrics.at("cum_p99_wait_s");
  }
  if (!result.drained || stack.overrun) {
    it.rejected = std::max<std::uint64_t>(it.rejected, 1);
  }
}

// --------------------------------------------------------------- checks

/// Structural checks that hold for every seed; returns the first failure.
std::string structural_check(const Options& opt, const Iteration& it) {
  std::size_t terminal = 0;
  for (const LegRun& leg : it.legs) {
    const cluster::ExperimentResult& r = leg.result;
    const std::size_t offered = opt.workload == "serve"
                                    ? it.offered
                                    : it.offered / it.legs.size();
    if (r.jobs_completed + r.jobs_failed != offered) {
      return leg.name + ": not every offered job is terminal";
    }
    if (leg.terminal != r.jobs_completed + r.jobs_failed) {
      return leg.name + ": terminal records disagree with the result";
    }
    if (r.matches != r.jobs_completed + r.jobs_failed + r.job_retries) {
      return leg.name + ": matches do not add up to terminal jobs + retries";
    }
    if (r.offloads_started == 0 || r.events_processed == 0 ||
        r.negotiation_cycles == 0 || !(r.makespan > 0.0)) {
      return leg.name + ": empty run";
    }
    if (leg.name == "MCCK" && r.addon_pins < r.jobs_completed) {
      return leg.name + ": fewer add-on pins than completed jobs";
    }
    terminal += r.jobs_completed + r.jobs_failed;
  }
  if (opt.workload == "paper" &&
      !(it.legs[0].result.makespan > it.legs[1].result.makespan &&
        it.legs[1].result.makespan > it.legs[2].result.makespan)) {
    return "paper: makespans are not ordered MC > MCC > MCCK";
  }
  if (opt.workload == "serve") {
    if (it.rejected != 0) return "serve: arrivals rejected or not drained";
    if (it.windows < 200) return "serve: fewer than 200 SLA windows";
  }
  if (terminal == 0) return "no job reached a terminal state";
  return {};
}

// ------------------------------------------------------------- running

/// Sets up one iteration and, given a calibration, drives it; without one
/// the iteration stops after set-up.
Iteration run_iteration(const Options& opt, bool traced, LayerCounts* counts,
                        Tracer* tracer, Calibration* cal) {
  Iteration it;
  if (opt.workload == "serve") {
    ServeStack stack;
    setup_serve(opt, traced, counts, tracer, stack, it);
    if (cal != nullptr) drive_serve(stack, it, traced ? tracer : nullptr, *cal);
    if (traced && counts != nullptr) {
      counts->pending_samples = std::move(stack.pending_samples);
    }
  } else {
    BatchStack stack;
    setup_batch(opt, traced, counts, tracer, stack, it);
    if (cal != nullptr) {
      if (traced) {
        drive_batch_steps(stack, it, *counts, *tracer, *cal);
      } else {
        drive_batch(stack, it, *cal);
      }
      finish_batch(stack, it);
    }
  }
  if (cal != nullptr) {
    double raw = 0.0;
    double scaled = 0.0;
    for (const LegRun& leg : it.legs) {
      raw += leg.run_s;
      scaled += leg.run_s / leg.scale;
    }
    it.host_scale = raw / scaled;
  }
  return it;
}

std::size_t terminal_jobs(const Iteration& it) {
  std::size_t n = 0;
  for (const LegRun& leg : it.legs) {
    n += leg.result.jobs_completed + leg.result.jobs_failed;
  }
  return n;
}

double drive_s(const Iteration& it) {
  double s = 0.0;
  for (const LegRun& leg : it.legs) s += leg.run_s;
  return s;
}

double raw_jobs_per_s(const Iteration& it) {
  return static_cast<double>(terminal_jobs(it)) / drive_s(it);
}

/// Jobs per second at the reference host speed.
double jobs_per_s(const Iteration& it) {
  return raw_jobs_per_s(it) * it.host_scale;
}

std::vector<Fingerprint> fingerprints(const Iteration& it) {
  std::vector<Fingerprint> out;
  for (const LegRun& leg : it.legs) out.push_back(leg.fingerprint);
  return out;
}

std::uint64_t telemetry_counter(const cluster::ExperimentResult& r,
                                const std::string& name) {
  if (r.telemetry == nullptr) return 0;
  const auto& counters = r.telemetry->metrics.counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Sum of every telemetry counter named phi.<node>.<card>.pcie.bytes_*
/// (the link model counts whole MiB).
double pcie_mib(const cluster::ExperimentResult& r) {
  if (r.telemetry == nullptr) return 0.0;
  double mib = 0.0;
  for (const auto& [name, value] : r.telemetry->metrics.counters) {
    if (name.rfind("phi.", 0) == 0 &&
        (name.ends_with(".pcie.bytes_in") || name.ends_with(".pcie.bytes_out"))) {
      mib += static_cast<double>(value);
    }
  }
  return mib;
}

/// Cross-checks of the traced run's own counts against the program's.
std::string counter_check(const Options& opt, const Iteration& it,
                          const LayerCounts& counts) {
  std::uint64_t cycles = 0;
  std::uint64_t pins = 0;
  std::uint64_t events = 0;
  for (const LegRun& leg : it.legs) {
    const cluster::ExperimentResult& r = leg.result;
    if (telemetry_counter(r, "condor.negotiator.cycles") !=
        r.negotiation_cycles) {
      return leg.name + ": condor.cycles disagrees with telemetry";
    }
    if (telemetry_counter(r, "condor.negotiator.matches") != r.matches) {
      return leg.name + ": condor.matches disagrees with telemetry";
    }
    cycles += r.negotiation_cycles;
    pins += r.addon_pins;
    events += r.events_processed;
  }
  if (opt.workload != "serve" && counts.steps != events) {
    return "steps (" + std::to_string(counts.steps) + ") != events_processed (" +
           std::to_string(events) + ")";
  }
  if (opt.workload != "serve" && counts.cycle_steps != cycles) {
    return "classified cycle steps (" + std::to_string(counts.cycle_steps) +
           ") != negotiation_cycles (" + std::to_string(cycles) + ")";
  }
  if (counts.pins != pins) {
    return "core.pins (" + std::to_string(counts.pins) + ") != addon_pins (" +
           std::to_string(pins) + ")";
  }
  return {};
}

struct Probe {
  double job_ad_us = 0.0;
  double match_us = 0.0;
  double pairs = 0.0;
};

/// ClassAd cost outside the event loop: build the workload's job ads with
/// each leg's Requirements and evaluate them against fresh machine ads.
Probe classad_probe(const Options& opt, Tracer& tracer) {
  const std::size_t count = opt.workload == "serve"
                                ? make_arrivals(opt.seed).size()
                                : kBatchJobs;
  const workload::JobSet jobs = make_jobs(opt.workload, opt.seed, count);
  Probe probe;
  double ad_s = 0.0;
  double match_s = 0.0;
  std::size_t ads = 0;
  std::size_t matched = 0;
  for (const Leg& leg : make_legs(opt.workload, opt.seed)) {
    const cluster::ExperimentConfig& c = leg.config;
    const std::string reqs =
        c.stack == cluster::StackConfig::kMC    ? condor::exclusive_requirements()
        : c.stack == cluster::StackConfig::kMCC ? condor::arbitrary_requirements()
                                                : condor::pinned_requirements(0);
    std::vector<classad::ClassAd> job_ads;
    job_ads.reserve(jobs.size());
    int span = tracer.begin("classad.make_job_ad");
    for (const workload::JobSpec& job : jobs) {
      job_ads.push_back(condor::make_job_ad(job, reqs));
    }
    tracer.end(span);
    ad_s += tracer.duration_s(span);
    ads += job_ads.size();

    Simulator sim;
    cluster::NodeConfig nc;
    nc.hw = c.node_hw;
    nc.devices = c.devices;
    if (!c.devices.empty()) nc.hw.phi_devices = static_cast<int>(c.devices.size());
    nc.device.mem_bw = c.mem_bw;
    nc.device.pcie = c.pcie;
    nc.pcie_switch = c.pcie_switch;
    std::vector<classad::ClassAd> machine_ads;
    for (NodeId n = 0; n < static_cast<NodeId>(c.node_count); ++n) {
      const cluster::Node node(sim, n, nc,
                               Rng(opt.seed).child("probe" + std::to_string(n)));
      machine_ads.push_back(node.machine_ad());
    }
    span = tracer.begin("classad.requirements_met");
    for (const classad::ClassAd& ad : job_ads) {
      for (const classad::ClassAd& machine : machine_ads) {
        if (classad::requirements_met(ad, machine)) ++matched;
      }
    }
    tracer.end(span);
    match_s += tracer.duration_s(span);
    probe.pairs += static_cast<double>(job_ads.size() * machine_ads.size());
  }
  if (matched == 0) std::fprintf(stderr, "perfbench: probe matched no pair\n");
  probe.job_ad_us = 1e6 * ad_s / static_cast<double>(ads);
  probe.match_us = 1e6 * match_s / probe.pairs;
  return probe;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- metrics

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

template <typename F>
double median_of(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  return perfbench::median(std::move(v));
}

Metrics end_to_end(const std::vector<Iteration>& its,
                   const std::vector<double>& setups, bool correct) {
  const LegRun& quality = its.front().legs.back();
  const cluster::ExperimentResult& r = quality.result;
  double offered = 0.0;
  double completed = 0.0;
  for (const Iteration& it : its) {
    offered += static_cast<double>(it.offered);
    for (const LegRun& leg : it.legs) {
      completed += static_cast<double>(leg.result.jobs_completed);
    }
  }
  return {
      {"jobs_per_s", {median_of(its, jobs_per_s), "1/s"}},
      {"setup_s", {perfbench::median(setups), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
      {"completed_frac", {correct ? completed / offered : 0.0, "frac"}},
      {"makespan_s", {r.makespan, "s"}},
      {"mean_turnaround_s", {r.mean_turnaround, "s"}},
      {"core_utilization", {r.avg_core_utilization, "frac"}},
  };
}

struct SpanStats {
  std::vector<double> durations;  ///< seconds
  double self_s = 0.0;
};

std::map<std::string, SpanStats> span_stats(const Tracer& tracer) {
  const std::vector<double> self = perfbench::self_times(tracer.spans());
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const perfbench::Span& s = tracer.spans()[i];
    SpanStats& st = out[s.name];
    st.durations.push_back(s.end_s - s.start_s);
    st.self_s += self[i];
  }
  return out;
}

Metrics per_layer(const Options& opt, const std::vector<Iteration>& plain,
                  const std::vector<Iteration>& traced,
                  const std::vector<LayerCounts>& counts, const Tracer& tracer,
                  const Probe& probe) {
  const double n = static_cast<double>(traced.size());
  std::map<std::string, SpanStats> spans = span_stats(tracer);
  const Iteration& first = traced.front();
  const LayerCounts& c = counts.front();

  double events = 0, matches = 0, rejected = 0, offloads = 0, queued = 0,
         ooms = 0, container_kills = 0, mib = 0;
  for (const LegRun& leg : first.legs) {
    const cluster::ExperimentResult& r = leg.result;
    events += static_cast<double>(r.events_processed);
    matches += static_cast<double>(r.matches);
    rejected += static_cast<double>(
        telemetry_counter(r, "condor.negotiator.rejected_dispatches"));
    offloads += static_cast<double>(r.offloads_started);
    queued += static_cast<double>(r.offloads_queued);
    ooms += static_cast<double>(r.oom_kills);
    container_kills += static_cast<double>(r.container_kills);
    mib += pcie_mib(r);
  }
  double cycles = 0;
  for (const LegRun& leg : first.legs) {
    cycles += static_cast<double>(leg.result.negotiation_cycles);
  }

  const SpanStats& step = spans["sim.step"];
  const SpanStats& cycle = spans["condor.cycle"];
  const SpanStats& assign = spans["core.assign"];

  const auto leg_run_s = [&](const char* name) {
    return median_of(traced, [name](const Iteration& it) {
      for (const LegRun& leg : it.legs) {
        if (leg.name == name) return leg.run_s;
      }
      return 0.0;
    });
  };
  const auto leg_sum = [&](double LegRun::*field) {
    return median_of(traced, [field](const Iteration& it) {
      double s = 0.0;
      for (const LegRun& leg : it.legs) s += leg.*field;
      return s;
    });
  };

  double table2_err_pp = 0.0;
  if (opt.workload == "paper") {
    const double mc = first.legs[0].result.makespan;
    const double mcc = 100.0 * (first.legs[1].result.makespan / mc - 1.0);
    const double mcck = 100.0 * (first.legs[2].result.makespan / mc - 1.0);
    table2_err_pp = std::max(std::abs(mcc - kRefReductionMcc),
                             std::abs(mcck - kRefReductionMcck));
  }

  // The service's host shape, from the untraced iterations' arrival
  // stamps; the closed batches have none, so these read 0 there.
  std::vector<double> windows_q1;
  std::vector<double> windows_q4;
  std::vector<double> windows_count;
  std::vector<double> windows;
  std::vector<double> slowdowns;
  for (const Iteration& it : plain) {
    if (it.stamps.empty()) continue;
    const std::vector<double> w =
        perfbench::window_host_ms(it.stamps, kWindow, kServeHorizon);
    windows.insert(windows.end(), w.begin(), w.end());
    const std::size_t q = w.size() / 4;
    double a = 0.0;
    double b = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      a += w[i];
      b += w[w.size() - 1 - i];
    }
    windows_q1.push_back(a / static_cast<double>(q));
    windows_q4.push_back(b / static_cast<double>(q));
    windows_count.push_back(static_cast<double>(it.windows));
    slowdowns.push_back(perfbench::late_slowdown(
        perfbench::quarters(it.stamps, kServeHorizon)));
  }
  double pending_mean = 0.0;
  for (const double p : c.pending_samples) pending_mean += p;
  if (!c.pending_samples.empty()) {
    pending_mean /= static_cast<double>(c.pending_samples.size());
  }

  const double plain_rate = median_of(plain, jobs_per_s);
  const double traced_rate = median_of(traced, jobs_per_s);
  std::vector<double> scales;
  for (const auto* set : {&plain, &traced}) {
    for (const Iteration& it : *set) scales.push_back(it.host_scale);
  }
  const double calibration_ms =
      1e3 * kCalibrationNominalS * perfbench::median(std::move(scales));

  return {
      {"sim.events", {events, "count"}},
      {"sim.step_us_p50", {1e6 * perfbench::median(step.durations), "us"}},
      {"sim.step_us_p99",
       {1e6 * perfbench::tail_percentile(step.durations, 99.0), "us"}},
      {"sim.step_self_s", {step.self_s / n, "s"}},
      {"condor.cycles", {cycles, "count"}},
      {"condor.matches", {matches, "count"}},
      {"condor.rejected_dispatches", {rejected, "count"}},
      {"condor.match_yield",
       {matches + rejected > 0 ? matches / (matches + rejected) : 0.0, "frac"}},
      {"condor.cycle_ms_p50", {1e3 * perfbench::median(cycle.durations), "ms"}},
      {"condor.cycle_ms_p99",
       {1e3 * perfbench::tail_percentile(cycle.durations, 99.0), "ms"}},
      {"condor.cycle_self_s", {cycle.self_s / n, "s"}},
      {"condor.pending_walked", {c.pending_walked, "count"}},
      {"condor.cycle_us_per_pending",
       {c.pending_walked > 0.0
            ? 1e6 * (cycle.self_s / n) / c.pending_walked
            : 0.0,
        "us"}},
      {"classad.job_ad_us", {probe.job_ad_us, "us"}},
      {"classad.match_us", {probe.match_us, "us"}},
      {"classad.match_pairs", {probe.pairs, "count"}},
      {"core.assign_calls", {static_cast<double>(c.assign_calls), "count"}},
      {"core.assign_jobs_offered",
       {static_cast<double>(c.jobs_offered), "count"}},
      {"core.pins", {static_cast<double>(c.pins), "count"}},
      {"core.pin_yield",
       {c.jobs_offered > 0 ? static_cast<double>(c.pins) /
                                 static_cast<double>(c.jobs_offered)
                           : 0.0,
        "frac"}},
      {"core.assign_ms_p50", {1e3 * perfbench::median(assign.durations), "ms"}},
      {"core.assign_ms_p99",
       {1e3 * perfbench::tail_percentile(assign.durations, 99.0), "ms"}},
      {"core.assign_self_s", {assign.self_s / n, "s"}},
      {"phi.offloads_started", {offloads, "count"}},
      {"cosmic.offloads_queued", {queued, "count"}},
      {"phi.oom_kills", {ooms, "count"}},
      {"cosmic.container_kills", {container_kills, "count"}},
      {"phi.pcie_mib", {mib, "MiB"}},
      {"cluster.build_ms", {1e3 * leg_sum(&LegRun::build_s), "ms"}},
      {"cluster.submit_ms", {1e3 * leg_sum(&LegRun::submit_s), "ms"}},
      {"cluster.result_ms", {1e3 * leg_sum(&LegRun::result_s), "ms"}},
      {"cluster.run_s.MC", {leg_run_s("MC"), "s"}},
      {"cluster.run_s.MCC", {leg_run_s("MCC"), "s"}},
      {"cluster.run_s.MCCK", {leg_run_s("MCCK"), "s"}},
      {"workload.generate_ms",
       {1e3 * median_of(traced, [](const Iteration& it) { return it.generate_s; }),
        "ms"}},
      {"workload.arrivals",
       {static_cast<double>(first.offered / first.legs.size()), "count"}},
      {"serve.windows", {perfbench::median(windows_count), "count"}},
      {"serve.window_ms_q1", {perfbench::median(windows_q1), "ms"}},
      {"serve.window_ms_q4", {perfbench::median(windows_q4), "ms"}},
      {"serve.window_ms_p50", {perfbench::median(windows), "ms"}},
      {"serve.window_ms_p95", {perfbench::tail_percentile(windows, 95.0), "ms"}},
      {"serve.late_slowdown", {perfbench::median(slowdowns), "ratio"}},
      {"serve.wait_p99_s", {first.wait_p99, "s"}},
      {"serve.pending_mean", {pending_mean, "count"}},
      {"paper.table2_err_pp", {table2_err_pp, "pp"}},
      {"trace.overhead", {plain_rate / traced_rate, "ratio"}},
      {"host.calibration_ms", {calibration_ms, "ms"}},
      {"host.jobs_per_s_raw", {median_of(plain, raw_jobs_per_s), "1/s"}},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return opt.workload == "paper" || opt.workload == "fleet" ||
         opt.workload == "serve";
}

/// Runs iterations for about `seconds` (at least `min_iterations`),
/// checking each against the reference fingerprint: an iteration starts
/// only while half of the previous one's duration still fits before the
/// deadline. `previous_s` is the duration of the iteration run before this
/// call (0 if none). Returns the first failure.
std::string measure(const Options& opt, bool traced, double seconds,
                    std::size_t min_iterations, double previous_s,
                    Calibration& cal, const std::vector<Fingerprint>& reference,
                    std::vector<Iteration>& its, std::vector<LayerCounts>& counts,
                    Tracer& tracer) {
  const double deadline = host_s() + seconds;
  for (std::size_t k = 0;; ++k) {
    const double start = host_s();
    if (k >= min_iterations && start + previous_s / 2.0 > deadline) break;
    counts.emplace_back();
    tracer.set_run(static_cast<int>(its.size()));
    its.push_back(run_iteration(opt, traced, traced ? &counts.back() : nullptr,
                                traced ? &tracer : nullptr, &cal));
    const Iteration& it = its.back();
    if (std::string f = structural_check(opt, it); !f.empty()) return f;
    if (fingerprints(it) != reference) {
      for (const Fingerprint& f : fingerprints(it)) print_fingerprint("got", f);
      for (const Fingerprint& f : reference) print_fingerprint("want", f);
      return traced ? "traced run diverged from the untraced fingerprint"
                    : "iteration diverged from the reference fingerprint";
    }
    if (traced) {
      if (std::string f = counter_check(opt, it, counts.back()); !f.empty()) {
        return f;
      }
    }
    previous_s = host_s() - start;
  }
  return {};
}

int run(const Options& opt) {
  if (opt.workload == "serve") write_arrivals(opt);
  Tracer tracer;
  Calibration cal;
  // The first measured iteration fixes the reference fingerprint.
  const double first_start = host_s();
  Iteration first = run_iteration(opt, false, nullptr, nullptr, &cal);
  const double first_s = host_s() - first_start;
  std::vector<Fingerprint> reference = fingerprints(first);
  std::string failure = structural_check(opt, first);
  if (failure.empty() && opt.seed == kDefaultSeed &&
      reference != expected().at(opt.workload)) {
    for (const Fingerprint& f : reference) print_fingerprint("got", f);
    for (const Fingerprint& f : expected().at(opt.workload)) {
      print_fingerprint("want", f);
    }
    failure = "fingerprint differs from the stored seed-42 values";
  }

  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<Iteration> plain{std::move(first)};
  std::vector<Iteration> traced;
  std::vector<LayerCounts> plain_counts(1);
  std::vector<LayerCounts> traced_counts;
  if (failure.empty()) {
    failure = measure(opt, false, budget - first_s, 0, first_s, cal,
                      reference, plain, plain_counts, tracer);
  }
  if (failure.empty() && opt.trace) {
    failure = measure(opt, true, budget, 1, 0.0, cal, reference, traced,
                      traced_counts, tracer);
  }
  // The set-ups are timed after the measured phase: by then the machine has
  // run the workload for the run's seconds, as it has between back-to-back
  // runs, and a run that starts on an idle machine does not time them fast.
  // Each block of set-ups is scaled by the calibration points around it.
  std::vector<double> setups;
  for (int b = 0; failure.empty() && !opt.trace && b < kSetupBlocks; ++b) {
    std::vector<double> block;
    for (int k = 0; k < kSetupsPerBlock; ++k) {
      block.push_back(
          run_iteration(opt, false, nullptr, nullptr, nullptr).setup_s);
    }
    const double scale = cal.next_scale();
    for (const double s : block) setups.push_back(s / scale);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const Iteration& it : *set) {
      attempted += it.offered;
      failed += it.offered - terminal_jobs(it);
      for (const LegRun& leg : it.legs) failed += leg.result.jobs_failed;
      failed += it.rejected;
    }
  }
  const bool correct = failure.empty();
  if (!correct) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 failure.c_str());
    failed = attempted;
  }

  Metrics metrics;
  if (!opt.trace) {
    metrics = end_to_end(plain, setups, correct);
  } else if (correct) {
    tracer.set_run(-1);
    const Probe probe = classad_probe(opt, tracer);
    metrics = per_layer(opt, plain, traced, traced_counts, tracer, probe);
    const std::string path = opt.work_dir + "/perfbench-trace-" +
                             opt.workload + "-" + std::to_string(opt.seed) +
                             ".csv";
    if (!tracer.write_csv(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %" PRIu64
               ": %zu untraced + %zu traced iterations; calibration %.1f ms "
               "(reference %.1f ms), unscaled %.1f jobs/s\n",
               opt.workload.c_str(), opt.seed, plain.size(), traced.size(),
               1e3 * kCalibrationNominalS *
                   median_of(plain, [](const Iteration& it) { return it.host_scale; }),
               1e3 * kCalibrationNominalS, median_of(plain, raw_jobs_per_s));
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload paper|fleet|serve --seed N "
                   "--seconds S --trace 0|1 [--work-dir DIR]\n");
      return 2;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

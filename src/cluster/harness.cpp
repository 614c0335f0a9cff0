#include "cluster/harness.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/quantize.hpp"

#include "classad/parser.hpp"
#include "cluster/jobrun.hpp"
#include "cluster/node.hpp"
#include "common/check.hpp"
#include "condor/ads.hpp"
#include "condor/negotiator.hpp"
#include "core/addon.hpp"
#include "obs/recorder.hpp"
#include "sim/timer.hpp"

namespace phisched::cluster {

namespace {

[[nodiscard]] bool uses_cosmic(StackConfig c) { return c != StackConfig::kMC; }

[[nodiscard]] bool uses_addon(StackConfig c) {
  return c == StackConfig::kMCCK || c == StackConfig::kMCCFirstFit ||
         c == StackConfig::kMCCBestFit || c == StackConfig::kMCCOracle;
}

}  // namespace

Harness::Harness(const ExperimentConfig& config)
    : config_(config),
      rng_(config.seed),
      schedd_(sim_),
      collector_(config.ad_update_interval > 0.0
                     ? condor::Collector(sim_, config.ad_update_interval)
                     : condor::Collector()) {
  PHISCHED_REQUIRE(config_.node_count > 0, "experiment: need nodes");
  PHISCHED_REQUIRE(config_.dispatch_latency >= 0.0 &&
                       config_.dispatch_latency < config_.negotiation_interval,
                   "experiment: dispatch latency must be below the "
                   "negotiation interval");
  if (config_.telemetry) recorder_ = std::make_unique<obs::Recorder>();
  job_requirements_ = classad::parse(requirements_for_stack());
  build_nodes();
  build_condor();
}

Harness::~Harness() = default;

void Harness::build_nodes() {
  // Every node carries the same cards: the --devices fleet, or
  // node_hw.phi_devices copies of node_hw.phi.
  if (config_.devices.empty()) {
    cards_.assign(static_cast<std::size_t>(config_.node_hw.phi_devices),
                  config_.node_hw.phi);
  } else {
    for (const phi::DeviceCapability& cap : config_.devices) {
      cards_.push_back(cap.hw);
    }
  }
  std::stable_sort(cards_.begin(), cards_.end(),
                   [](const PhiHardware& a, const PhiHardware& b) {
                     return a.usable_memory_mib() > b.usable_memory_mib();
                   });
  NodeConfig nc;
  nc.hw = config_.node_hw;
  nc.devices = config_.devices;
  if (!config_.devices.empty()) {
    nc.hw.phi_devices = static_cast<int>(config_.devices.size());
  }
  nc.device.mem_bw = config_.mem_bw;
  nc.device.oversub_exponent = config_.oversub_exponent;
  nc.device.unmanaged_overlap_penalty = config_.unmanaged_overlap_penalty;
  nc.device.idle_spin_exponent = config_.idle_spin_exponent;
  nc.device.affinity = uses_cosmic(config_.stack)
                           ? phi::AffinityPolicy::kManagedCompact
                           : phi::AffinityPolicy::kUnmanagedScatter;
  nc.middleware.enforce_containers =
      uses_cosmic(config_.stack) && !config_.disable_containers_for_testing;
  nc.middleware.serialize_offloads = uses_cosmic(config_.stack);
  nc.middleware.drain = config_.drain;
  nc.middleware.queued_resume_overhead_s = config_.queued_resume_overhead;
  nc.middleware.pcie_bandwidth_mib_s = config_.pcie_bandwidth_mib_s;
  nc.device.pcie = config_.pcie;
  nc.pcie_switch = config_.pcie_switch;

  for (NodeId n = 0; n < static_cast<NodeId>(config_.node_count); ++n) {
    nodes_.push_back(std::make_unique<Node>(
        sim_, n, nc, rng_.child("node" + std::to_string(n))));
    collector_.advertise(n, [this, n] {
      return nodes_[static_cast<std::size_t>(n)]->shared_machine_ad();
    });
    if (recorder_ != nullptr) {
      Node& node = *nodes_.back();
      const std::string tag = "node" + std::to_string(n);
      node.middleware().attach_telemetry(*recorder_, "cosmic." + tag);
      for (DeviceId d = 0; d < node.device_count(); ++d) {
        node.device(d).attach_telemetry(
            *recorder_, "phi." + tag + ".mic" + std::to_string(d));
      }
      if (node.pcie_switch() != nullptr) {
        node.pcie_switch()->attach_telemetry(*recorder_,
                                             "phi." + tag + ".pcie_switch");
      }
    }
  }
}

void Harness::build_condor() {
  condor::NegotiatorConfig ncfg;
  ncfg.cycle_interval = config_.negotiation_interval;
  ncfg.order = condor::MachineOrder::kRandom;
  ncfg.negotiation = config_.negotiation;
  negotiator_ = std::make_unique<condor::Negotiator>(
      sim_, schedd_, collector_,
      [this](JobId job, NodeId node) { return dispatch(job, node); }, ncfg,
      rng_.child("negotiator"));
  negotiator_->set_post_cycle_hook([this] { check_liveness(); });
  if (recorder_ != nullptr) {
    negotiator_->attach_telemetry(*recorder_, "condor.negotiator");
    schedd_.attach_telemetry(*recorder_, "condor.schedd");
  }

  if (uses_addon(config_.stack)) {
    std::unique_ptr<core::AssignmentPolicy> policy;
    core::AddonConfig addon_config = config_.addon;
    switch (config_.stack) {
      case StackConfig::kMCCFirstFit:
        policy = core::make_first_fit_policy();
        break;
      case StackConfig::kMCCBestFit:
        policy = core::make_best_fit_policy();
        break;
      case StackConfig::kMCCOracle:
        policy = core::make_oracle_lpt_policy();
        addon_config.duration_oracle = [this](JobId id) {
          return solo_durations_.at(id);
        };
        break;
      default:
        policy = config_.policy_factory != nullptr
                     ? config_.policy_factory()
                     : core::make_knapsack_policy(config_.knapsack);
        break;
    }
    addon_ = std::make_unique<core::SharingAwareScheduler>(
        schedd_, collector_, std::move(policy), addon_config);
    negotiator_->set_pre_cycle_hook([this] { addon_->pre_cycle(); });
  }

  schedd_.set_on_terminal([this](const condor::JobRecord& rec) {
    // The user observer runs first, while the record is fresh, so a
    // service layer can stream per-job wait/turnaround samples the
    // moment they exist.
    if (terminal_observer_ != nullptr) terminal_observer_(rec);
    if (complete()) {
      negotiator_->stop();
      if (sampler_ != nullptr) sampler_->stop();
    }
  });
}

void Harness::ensure_started() {
  if (started_) return;
  started_ = true;
  // Trigger an immediate first negotiation so the cluster does not sit
  // idle for one full interval (Condor negotiates on submission).
  sim_.schedule_in(0.0, [this] { negotiator_->run_cycle(); });
  negotiator_->start();
  if (config_.sample_interval > 0.0) {
    sampler_ = std::make_unique<PeriodicTimer>(
        sim_, config_.sample_interval, [this] { take_sample(); });
  }
}

void Harness::take_sample() {
  CoreCount busy = 0;
  CoreCount total = 0;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      busy += node->device(d).busy_cores();
      total += node->device(d).config().hw.cores;
    }
  }
  samples_.emplace_back(
      sim_.now(),
      total > 0 ? static_cast<double>(busy) / static_cast<double>(total)
                : 0.0);
}

/// Requirements each stack submits with. Add-on configurations submit
/// jobs that match nothing until the add-on pins them: the cluster
/// scheduler owns every placement decision, so vanilla matchmaking must
/// not race it (the paper's add-on wins the same race by batching
/// qedits before each cycle).
std::string Harness::requirements_for_stack() const {
  if (config_.stack == StackConfig::kMC) {
    return condor::exclusive_requirements();
  }
  return uses_addon(config_.stack) ? "false"
                                   : condor::arbitrary_requirements();
}

MiB Harness::memory_cap(ThreadCount threads, int devices_req) const {
  // cards_ is sorted by usable memory, largest first: the devices_req-th
  // card with enough threads is the tightest one a gang must use.
  int fitting = 0;
  for (const PhiHardware& card : cards_) {
    if (threads <= card.hw_threads() && ++fitting == devices_req) {
      return card.usable_memory_mib();
    }
  }
  return -1;
}

void Harness::submit(const workload::JobSpec& job) {
  PHISCHED_REQUIRE(job.submit_time >= 0.0, "negative submit time");
  MiB cap = memory_cap(job.threads_req, job.devices_req);
  if (packs_on_grid(job) && cap >= 0) {
    cap = quantize_down(cap, config_.knapsack.quantum_mib);
  }
  PHISCHED_REQUIRE(
      job.devices_req >= 1 && job.mem_req_mib <= cap,
      "job ", job.id, " does not fit the fleet: it needs ", job.devices_req,
      " coprocessor(s) on one node, each with ", job.mem_req_mib,
      " MiB and ", job.threads_req, " threads");
  const bool fresh =
      solo_durations_.try_emplace(job.id, job.profile.total_duration()).second;
  PHISCHED_REQUIRE(fresh, "harness: duplicate job id");
  specs_.emplace(job.id, job);

  // Submitting into a drained harness re-opens the run: the negotiator
  // (stopped by the terminal hook) must be re-armed, and any finalized
  // result is stale.
  const bool resume = started_ && complete();
  total_jobs_ += 1;
  final_.reset();

  if (job.submit_time <= sim_.now()) {
    schedd_.submit(job.id, condor::make_job_ad(job, job_requirements_));
  } else {
    // Dynamic arrival (the paper's "dynamic scenario with continuously
    // arriving jobs"): each negotiation cycle schedules a snapshot of
    // whatever is pending at that moment. The spec is captured by value:
    // re-reading specs_ at fire time would silently pick up whatever a
    // later mutation (e.g. a retry's memory boost on a resubmitted id)
    // left there instead of what this call submitted.
    sim_.schedule_at(job.submit_time, [this, spec = job] {
      schedd_.submit(spec.id, condor::make_job_ad(spec, job_requirements_));
    });
  }

  if (resume) {
    sim_.schedule_in(0.0, [this] { negotiator_->run_cycle(); });
    negotiator_->start();
    if (sampler_ != nullptr) sampler_->start();
  }
}

bool Harness::packs_on_grid(const workload::JobSpec& job) const {
  // The knapsack packs declarations rounded up to its grid into
  // capacities rounded down to it; gang jobs bypass it.
  return config_.stack == StackConfig::kMCCK && job.devices_req == 1;
}

void Harness::submit(const workload::JobSet& jobs) {
  for (const workload::JobSpec& job : jobs) submit(job);
}

bool Harness::step() {
  ensure_started();
  const bool stepped = sim_.step();
  finished_runs_.clear();
  return stepped;
}

std::size_t Harness::run_until(SimTime t) {
  ensure_started();
  const std::size_t events = sim_.run_until(t);
  finished_runs_.clear();
  return events;
}

std::size_t Harness::run_for(SimTime dt) { return run_until(sim_.now() + dt); }

ExperimentResult Harness::run_to_completion() {
  ensure_started();
  sim_.run();
  finished_runs_.clear();
  PHISCHED_CHECK(
      complete(),
      "experiment deadlock: " + std::to_string(schedd_.pending_count()) +
          " jobs never scheduled");
  return result();
}

SimTime Harness::now() const { return sim_.now(); }

const Node& Harness::node(NodeId id) const {
  PHISCHED_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                   "harness: bad node id");
  return *nodes_[static_cast<std::size_t>(id)];
}

bool Harness::complete() const {
  return schedd_.completed_count() + schedd_.failed_count() == total_jobs_;
}

std::size_t Harness::jobs_completed() const {
  return schedd_.completed_count();
}

std::size_t Harness::jobs_failed() const { return schedd_.failed_count(); }

std::size_t Harness::jobs_pending() const { return schedd_.pending_count(); }

std::vector<DeviceCapacity> Harness::device_capacities() const {
  std::vector<DeviceCapacity> capacities;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      capacities.push_back(
          DeviceCapacity{node->middleware().unreserved_memory(d),
                         node->middleware().unreserved_threads(d)});
    }
  }
  return capacities;
}

void Harness::set_terminal_observer(
    std::function<void(const condor::JobRecord&)> observer) {
  terminal_observer_ = std::move(observer);
}

condor::DispatchResult Harness::dispatch(JobId job_id, NodeId node_id) {
  // A negotiation cycle never runs inside a JobRun's callback, so the
  // runs that finished since the last cycle can go.
  finished_runs_.clear();
  Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  // Slots and cards free up only when a job ends, never inside a cycle:
  // a node out of either refuses every job for the rest of the cycle.
  if (node.free_slots() <= 0) return condor::DispatchResult::kNodeClosed;

  const workload::JobSpec& spec = specs_.at(job_id);

  // Device pinning: MC claims whole free devices (the job's entire
  // gang); add-on jobs carry the knapsack's choice in their ad; plain
  // MCC — and gang jobs under any sharing stack — let COSMIC decide.
  std::vector<DeviceId> devices;
  if (config_.stack == StackConfig::kMC) {
    // Claim devices_req whole free devices, skipping ones already
    // claimed by an in-flight dispatch this cycle (their reservation
    // lands only after the shadow/starter latency).
    for (DeviceId d = 0;
         d < node.device_count() &&
         devices.size() < static_cast<std::size_t>(spec.devices_req);
         ++d) {
      if (node.middleware().jobs_on_device(d) == 0 &&
          exclusive_claims_.find(DeviceAddress{node_id, d}) ==
              exclusive_claims_.end()) {
        devices.push_back(d);
      }
    }
    if (devices.size() < static_cast<std::size_t>(spec.devices_req)) {
      // Stale ad: not enough free devices. Some free card may still take
      // a narrower job.
      return devices.empty() ? condor::DispatchResult::kNodeClosed
                             : condor::DispatchResult::kRefused;
    }
    for (DeviceId d : devices) {
      exclusive_claims_.insert(DeviceAddress{node_id, d});
      exclusive_claims_of_[job_id].push_back(DeviceAddress{node_id, d});
    }
  } else if (spec.devices_req == 1) {
    const auto pinned =
        schedd_.record(job_id).ad.eval_integer(condor::kAttrPinnedDevice);
    if (pinned.has_value()) devices.push_back(static_cast<DeviceId>(*pinned));
  }

  auto run = std::make_unique<JobRun>(
      sim_, spec, node.middleware(), devices,
      [this, node_id](const workload::JobSpec& s, bool success) {
        on_job_done(s, node_id, success);
      });
  node.claim_slot();
  JobRun* raw = run.get();
  const bool fresh = runs_.emplace(job_id, std::move(run)).second;
  PHISCHED_CHECK(fresh, "harness: job ", job_id, " dispatched twice");
  // Shadow/starter latency: transfer the job and spawn it at the node.
  sim_.schedule_in(config_.dispatch_latency, [this, job_id, raw] {
    schedd_.mark_running(job_id);
    raw->arrive();
  });
  return condor::DispatchResult::kAccepted;
}

void Harness::check_liveness() {
  const std::uint64_t progress =
      negotiator_->stats().matches + schedd_.ad_changes();
  const bool idle = progress == progress_at_last_cycle_;
  progress_at_last_cycle_ = progress;
  if (!idle || schedd_.pending_count() == 0) return;
  // With only the harness's own timers queued no job runs and nothing
  // arrives, so no node changes state again...
  const std::size_t timers =
      std::size_t{negotiator_->running()} +
      std::size_t{sampler_ != nullptr && sampler_->running()};
  if (sim_.pending_events() > timers) return;
  // ...and once the collector's ads are the nodes' current ones (a stale
  // collector catches up at its next update epoch), every later cycle
  // repeats this one.
  for (const auto& node : nodes_) {
    if (collector_.machine_ad(node->id()) != node->shared_machine_ad()) return;
  }
  const std::vector<JobId> stuck = schedd_.pending();
  constexpr std::size_t kNamed = 10;
  std::ostringstream msg;
  msg << "experiment deadlock at t=" << sim_.now() << ": " << stuck.size()
      << " pending job(s) can never be scheduled (";
  for (std::size_t i = 0; i < std::min(stuck.size(), kNamed); ++i) {
    msg << (i == 0 ? "" : ", ") << stuck[i];
  }
  if (stuck.size() > kNamed) msg << " and " << stuck.size() - kNamed << " more";
  msg << ")";
  throw std::runtime_error(msg.str());
}

void Harness::on_job_done(const workload::JobSpec& spec, NodeId node_id,
                          bool success) {
  const JobId id = spec.id;
  nodes_[static_cast<std::size_t>(node_id)]->release_slot();
  if (const auto it = exclusive_claims_of_.find(id);
      it != exclusive_claims_of_.end()) {
    for (const DeviceAddress& addr : it->second) {
      exclusive_claims_.erase(addr);
    }
    exclusive_claims_of_.erase(it);
  }
  // `spec` lives in the run, which is still executing this callback: park
  // the run until a driving call or the next dispatch frees it.
  const auto run = runs_.find(id);
  PHISCHED_CHECK(run != runs_.end(), "harness: finished job ", id,
                 " has no run");
  finished_runs_.push_back(std::move(run->second));
  runs_.erase(run);
  if (success) {
    specs_.erase(id);
    schedd_.mark_completed(id);
    return;
  }
  if (schedd_.record(id).retries < config_.max_retries) {
    // Requeue with a boosted declaration: the kill told us the
    // estimate was too low. The boost stops at the largest declaration
    // on the memory grid that the fleet can still place (the knapsack
    // packs quantized declarations into quantized-down capacities).
    workload::JobSpec& stored = specs_.at(id);
    const auto boosted = static_cast<MiB>(
        std::llround(static_cast<double>(stored.mem_req_mib) *
                     config_.retry_memory_boost));
    stored.mem_req_mib = std::min(
        quantize_down(memory_cap(stored.threads_req, stored.devices_req)),
        quantize_up(boosted));
    schedd_.requeue(id, condor::make_job_ad(stored, job_requirements_));
    return;
  }
  specs_.erase(id);
  schedd_.mark_failed(id);
}

ExperimentResult Harness::gather(SimTime until) const {
  ExperimentResult r;
  r.makespan = schedd_.last_finish_time();
  r.jobs_completed = schedd_.completed_count();
  r.jobs_failed = schedd_.failed_count();
  r.negotiation_cycles = negotiator_->stats().cycles;
  r.matches = negotiator_->stats().matches;
  r.events_processed = sim_.events_processed();
  if (addon_ != nullptr) r.addon_pins = addon_->stats().pins;

  double util_sum = 0.0;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      const phi::Device& dev = node->device(d);
      const double u = until > 0.0 ? dev.core_utilization(until) : 0.0;
      r.per_device_utilization.push_back(u);
      util_sum += u;
      r.device_energy_mj += dev.energy_joules(until) / 1e6;
      r.offloads_started += dev.stats().offloads_started;
      r.oom_kills += dev.stats().oom_kills;
      r.container_kills += dev.stats().container_kills;
    }
    r.offloads_queued += node->middleware().stats().offloads_queued;
  }
  if (!r.per_device_utilization.empty()) {
    r.avg_core_utilization =
        util_sum / static_cast<double>(r.per_device_utilization.size());
  }

  for (const auto& [id, _] : solo_durations_) {
    // Future arrivals are still in the event queue, not in the schedd.
    if (!schedd_.known(id)) continue;
    const condor::JobRecord& rec = schedd_.record(id);
    if (rec.finish_time >= 0.0) {
      r.turnaround.add(rec.finish_time - rec.submit_time);
    }
    if (rec.start_time >= 0.0) {
      r.wait_time.add(rec.start_time - rec.submit_time);
    }
    r.job_retries += static_cast<std::size_t>(rec.retries);
  }
  r.mean_turnaround = r.turnaround.mean();
  r.utilization_series = samples_;
  return r;
}

void Harness::roll_up(obs::Recorder& rec, const ExperimentResult& r) const {
  auto& m = rec.metrics();
  m.gauge("cluster.makespan_s").set(r.makespan);
  m.gauge("cluster.avg_core_utilization").set(r.avg_core_utilization);
  m.gauge("cluster.device_energy_mj").set(r.device_energy_mj);
  m.gauge("cluster.mean_turnaround_s").set(r.mean_turnaround);
  // Counters advance by delta so re-finalization (mid-run snapshots, a
  // run resumed by later submissions) lands on the same absolute values
  // the one-shot path writes.
  auto& completed = m.counter("cluster.jobs_completed");
  completed.inc(r.jobs_completed - completed.value());
  auto& failed = m.counter("cluster.jobs_failed");
  failed.inc(r.jobs_failed - failed.value());
  auto& retries = m.counter("cluster.job_retries");
  retries.inc(r.job_retries - retries.value());
  // Per-job slowdown (turnaround over solo full-speed duration) — the
  // paper's fairness lens on sharing. Rebuilt from scratch each
  // finalization for the same idempotency.
  auto& slowdown = m.histogram("cluster.job_slowdown", 0.0, 20.0, 40);
  slowdown.reset();
  for (const auto& [id, solo] : solo_durations_) {
    if (!schedd_.known(id)) continue;
    const condor::JobRecord& jrec = schedd_.record(id);
    if (jrec.finish_time >= 0.0 && solo > 0.0) {
      slowdown.add((jrec.finish_time - jrec.submit_time) / solo);
    }
  }
}

ExperimentResult Harness::snapshot() const {
  // Mid-run horizon: the current clock (>= every instrument's last
  // update). At completion this coincides with the makespan.
  const SimTime until = sim_.now();
  ExperimentResult r = gather(until);
  if (recorder_ != nullptr) {
    // Finalize a COPY of the recorder: close any open oversubscription
    // episodes and write cluster rollups there, leaving the live
    // instruments (and the stack) untouched.
    obs::Recorder copy = *recorder_;
    for (const auto& node : nodes_) {
      for (DeviceId d = 0; d < node->device_count(); ++d) {
        node->device(d).finalize_telemetry_into(copy);
      }
    }
    roll_up(copy, r);
    r.telemetry =
        std::make_shared<const obs::Snapshot>(obs::take_snapshot(copy, until));
  }
  return r;
}

const ExperimentResult& Harness::result() {
  PHISCHED_REQUIRE(complete(),
                   "harness: result() requires every submitted job to be "
                   "terminal (use snapshot() mid-run)");
  if (final_.has_value()) return *final_;
  // Integrate time-weighted metrics exactly to the makespan, not to a
  // possibly-overshot clock (run_until(t) may have advanced past it).
  ExperimentResult r = gather(schedd_.last_finish_time());
  if (recorder_ != nullptr) {
    // Close out per-device telemetry (end any oversubscription episode
    // the run stopped inside) before the snapshot below reads it.
    for (const auto& node : nodes_) {
      for (DeviceId d = 0; d < node->device_count(); ++d) {
        node->device(d).finalize_telemetry();
      }
    }
    roll_up(*recorder_, r);
    r.telemetry = std::make_shared<const obs::Snapshot>(
        obs::take_snapshot(*recorder_, r.makespan));
  }
  final_ = std::move(r);
  return *final_;
}

}  // namespace phisched::cluster

// Open-loop service mode: a long-running scheduler fed by an arrival
// stream, with admission control and continuous SLA telemetry.
//
// This is the regime the ROADMAP's "millions of users" north star points
// at and the paper's closed job sets never exercise: jobs arrive
// continuously (Poisson / bursty / diurnal / replayed trace), an
// admission layer sheds or defers load when the queue or occupancy
// crosses its thresholds, and windowed p50/p95/p99 wait and turnaround,
// queue depths, and per-tenant fairness flow through an obs::Registry
// and out through the JSON writers.
//
// Structure (after Jeongseob's HotCloud'12 dynamic-VM-scheduler: a
// collector poll loop feeding a scheduler decision thread, here folded
// into simulated time): a self-scheduling arrival chain on the
// simulator offers each job to the AdmissionController at
// its arrival instant; admitted jobs enter the Harness; a terminal
// observer streams each finished job's wait/turnaround into P² quantile
// estimators; window boundaries close an SLA row and reset the windowed
// estimators.
//
// Determinism contract: a Service run is a pure function of its config
// (seed included) — bit-identical across repeats.
// tests/cluster/test_service.cpp pins this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/harness.hpp"
#include "common/quantiles.hpp"
#include "common/rng.hpp"
#include "obs/recorder.hpp"
#include "workload/arrivals.hpp"

namespace phisched::cluster {

struct ServiceConfig {
  /// The underlying cluster (stack, nodes, seed, engine, ...).
  ExperimentConfig cluster;
  /// The arrival process (see workload/arrivals.hpp for the grammar).
  workload::ArrivalSpec arrivals;
  AdmissionConfig admission;

  /// Arrivals are generated for t in [0, horizon_s); the run is bounded.
  SimTime horizon_s = 600.0;
  /// SLA export window length: one telemetry row per window.
  SimTime window_s = 60.0;
  /// Drain after the horizon (run admitted jobs to completion, closing
  /// one final drain window) instead of stopping at the horizon.
  bool drain = true;
  /// Hard cap on generated jobs (0 = bounded by the horizon only).
  std::size_t max_jobs = 0;

  /// Tenants jobs are attributed to (fairness telemetry). Tenant k gets
  /// weight (k+1)^-tenant_skew: skew 0 = uniform, larger = heavier head
  /// (the tenant-skew scenario).
  std::size_t tenants = 1;
  double tenant_skew = 0.0;

  /// Samples the job arriving with this id (submit_time is overwritten
  /// with the arrival instant). Defaults to the paper's Table I mix.
  std::function<workload::JobSpec(JobId, Rng&)> job_factory;
};

/// One closed SLA window: flat metrics, ready for JSON export.
struct ServiceWindow {
  std::size_t index = 0;
  SimTime t_start = 0.0;
  SimTime t_end = 0.0;
  std::map<std::string, double> metrics;
};

struct ServiceResult {
  std::vector<ServiceWindow> windows;
  AdmissionStats admission;
  std::size_t jobs_generated = 0;
  std::size_t jobs_admitted = 0;
  bool drained = false;
  /// Final cluster result: the drained result() when `drained`, a
  /// snapshot() at the stop time otherwise.
  ExperimentResult cluster;
};

class Service {
 public:
  explicit Service(const ServiceConfig& config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Drives the whole bounded run: arrivals to the horizon, one SLA
  /// window per window_s, then (optionally) the drain. Call once.
  ServiceResult run();

  /// SLA instruments (gauges/counters updated at every window close)
  /// for ad-hoc export through obs::metrics_json.
  [[nodiscard]] const obs::Recorder& recorder() const { return recorder_; }
  [[nodiscard]] Harness& harness() { return harness_; }

 private:
  struct TenantStats {
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    double wait_sum_s = 0.0;
    double slowdown_sum = 0.0;
  };

  /// Per-job state between admission and the terminal transition. The
  /// SLA clock starts at the first offer, so deferral latency counts.
  struct LiveJob {
    SimTime offered = 0.0;
    std::size_t tenant = 0;
    double declared_threads = 0.0;
    double solo_duration_s = 0.0;
  };

  void schedule_arrival(SimTime t);
  void offer(workload::JobSpec job, SimTime offer_time, int defers_so_far,
             std::size_t tenant);
  void on_terminal(const condor::JobRecord& rec);
  void close_window(SimTime t_start, SimTime t_end);
  [[nodiscard]] std::size_t pick_tenant();
  [[nodiscard]] double occupancy() const;
  [[nodiscard]] double jain_fairness() const;

  ServiceConfig config_;
  Harness harness_;
  AdmissionController admission_;
  std::unique_ptr<workload::ArrivalStream> stream_;
  Rng job_rng_;
  Rng tenant_rng_;
  std::vector<double> tenant_cdf_;

  double thread_capacity_ = 1.0;
  double occupied_threads_ = 0.0;
  JobId next_id_ = 0;
  std::size_t jobs_generated_ = 0;
  bool stream_done_ = false;
  bool ran_ = false;

  std::map<JobId, LiveJob> live_;

  SlaQuantiles window_wait_;
  SlaQuantiles window_turnaround_;
  SlaQuantiles total_wait_;
  SlaQuantiles total_turnaround_;
  std::uint64_t window_completed_ = 0;
  std::uint64_t window_failed_ = 0;
  AdmissionStats last_admission_;  ///< stats at the previous window close

  std::vector<TenantStats> tenants_;
  std::vector<ServiceWindow> windows_;
  obs::Recorder recorder_;
};

/// The SLA export document (docs/service.md): shaped like a bench
/// report — {"bench":"service","results":[{"seed":<window index>,
/// "metrics":{...}}]} — so tools/bench_diff both validates it and can
/// window-pair two service runs against each other.
[[nodiscard]] std::string sla_report_json(const ServiceConfig& config,
                                          const ServiceResult& result,
                                          bool pretty = true);

}  // namespace phisched::cluster

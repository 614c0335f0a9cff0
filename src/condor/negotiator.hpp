// The negotiator: periodic matchmaking between pending jobs and machine
// ads (Section II-D).
//
// Each negotiation cycle snapshots the machine ads, orders pending jobs
// (priority, then FIFO), and hands both to the configured MatchStrategy
// (see condor/strategy.hpp): the default FifoStrategy walks jobs one at a
// time exactly like stock Condor; BatchStrategy drains a batch and solves
// its placement jointly under occupancy thresholds. A successful claim
// deducts the job's requested resources from a cycle-local copy of the
// machine ad (so one cycle can pack several jobs onto a node without
// oversubscribing the advertisement; the collector's shared ad is never
// written) and hands the (job, node) pair to the dispatch callback,
// which models the shadow/starter launch path.
//
// The optional pre-cycle hook is the integration point for the paper's
// sharing-aware add-on: it runs right before matchmaking, exactly like the
// external scheduler that batches condor_qedit updates so they are visible
// to the next cycle.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "condor/collector.hpp"
#include "condor/schedd.hpp"
#include "condor/strategy.hpp"
#include "obs/recorder.hpp"
#include "sim/timer.hpp"

namespace phisched::condor {

struct NegotiatorConfig {
  SimTime cycle_interval = 10.0;
  MachineOrder order = MachineOrder::kRandom;
  /// Whether the cycle-local machine-ad copy deducts the CUSTOM Phi
  /// resource attributes (PhiFreeMemory, PhiFreeDevices) as jobs are
  /// matched. Vanilla Condor deducts only standard claimed resources
  /// (slots); custom attributes stay stale until the next collector
  /// update, so several jobs can match the same advertised memory within
  /// one cycle and the surplus dispatches fail at the node. Keep false to
  /// model the paper's stock Condor (MC/MCC); the sharing-aware add-on
  /// does its own consistent accounting and does not need this either.
  bool deduct_custom_resources = false;
  /// Which matchmaking strategy runs the cycle (default: the paper's
  /// per-job FIFO walk).
  NegotiationConfig negotiation;
};

struct NegotiatorStats {
  std::uint64_t cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t rejected_dispatches = 0;
  /// Batch-strategy counters; stay zero under FifoStrategy.
  std::uint64_t batch_jobs = 0;
  std::uint64_t packed = 0;
  std::uint64_t occupancy_rejected = 0;
};

class Negotiator {
 public:
  /// Dispatch callback: launch `job` on `node`, or refuse the match (the
  /// job goes back to pending) and say whether the node is closed for the
  /// rest of the cycle.
  using DispatchFn = condor::DispatchFn;

  Negotiator(Simulator& sim, Schedd& schedd, Collector& collector,
             DispatchFn dispatch, NegotiatorConfig config, Rng rng);

  Negotiator(const Negotiator&) = delete;
  Negotiator& operator=(const Negotiator&) = delete;

  /// Installs the add-on hook executed at the start of every cycle.
  void set_pre_cycle_hook(std::function<void()> hook) {
    pre_cycle_ = std::move(hook);
  }

  /// Installs a hook executed at the end of every cycle.
  void set_post_cycle_hook(std::function<void()> hook) {
    post_cycle_ = std::move(hook);
  }

  /// Starts periodic cycles (the first fires after one interval).
  void start();
  void stop();
  /// True between start() and stop(): the next cycle is queued.
  [[nodiscard]] bool running() const { return timer_ != nullptr; }

  /// Runs one negotiation cycle immediately (also used by tests).
  void run_cycle();

  [[nodiscard]] const NegotiatorStats& stats() const { return stats_; }
  [[nodiscard]] MatchStrategyKind strategy_kind() const {
    return strategy_->kind();
  }

  /// Registers matchmaking instruments under `prefix` (e.g.
  /// "condor.negotiator"): cycle/match/rejection counters, the
  /// pending-queue depth series, the pending-age distribution, and one
  /// "negotiation_cycle" event per cycle. A batch-strategy negotiator
  /// additionally registers the batch_jobs / packed / occupancy_rejected
  /// counters and the match_latency histogram — only then, so the FIFO
  /// default exports byte-identical JSON to the pre-strategy negotiator.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    obs::Counter* cycles = nullptr;
    obs::Counter* matches = nullptr;
    obs::Counter* rejected_dispatches = nullptr;
    obs::TimeSeriesGauge* pending_jobs = nullptr;
    obs::Gauge* pending_age_max_s = nullptr;
    obs::ValueHistogram* pending_age_hist = nullptr;
    // Batch-only instruments (null under FifoStrategy).
    obs::Counter* batch_jobs = nullptr;
    obs::Counter* packed = nullptr;
    obs::Counter* occupancy_rejected = nullptr;
    obs::ValueHistogram* match_latency = nullptr;
  };

  Simulator& sim_;
  Schedd& schedd_;
  Collector& collector_;
  DispatchFn dispatch_;
  NegotiatorConfig config_;
  Rng rng_;
  std::unique_ptr<MatchStrategy> strategy_;
  std::function<void()> pre_cycle_;
  std::function<void()> post_cycle_;
  std::unique_ptr<PeriodicTimer> timer_;
  NegotiatorStats stats_;
  Telemetry obs_;
};

}  // namespace phisched::condor

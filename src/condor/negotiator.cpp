#include "condor/negotiator.hpp"

#include "common/check.hpp"
#include "condor/ads.hpp"

namespace phisched::condor {

Negotiator::Negotiator(Simulator& sim, Schedd& schedd, Collector& collector,
                       DispatchFn dispatch, NegotiatorConfig config, Rng rng)
    : sim_(sim),
      schedd_(schedd),
      collector_(collector),
      dispatch_(std::move(dispatch)),
      config_(config),
      rng_(rng),
      strategy_(make_match_strategy(config.negotiation)) {
  PHISCHED_REQUIRE(dispatch_ != nullptr, "Negotiator: null dispatch callback");
  PHISCHED_REQUIRE(config_.cycle_interval > 0.0,
                   "Negotiator: cycle interval must be positive");
}

void Negotiator::attach_telemetry(obs::Recorder& recorder,
                                  const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  auto& m = recorder.metrics();
  obs_.cycles = &m.counter(prefix + ".cycles");
  obs_.matches = &m.counter(prefix + ".matches");
  obs_.rejected_dispatches = &m.counter(prefix + ".rejected_dispatches");
  obs_.pending_jobs = &m.series(prefix + ".pending_jobs");
  obs_.pending_age_max_s = &m.gauge(prefix + ".pending_age_max_s");
  obs_.pending_age_hist =
      &m.histogram(prefix + ".pending_age_hist", 0.0, 600.0, 24);
  obs_.pending_jobs->set(sim_.now(), 0.0);
  if (strategy_->kind() == MatchStrategyKind::kBatch) {
    obs_.batch_jobs = &m.counter(prefix + ".batch_jobs");
    obs_.packed = &m.counter(prefix + ".packed");
    obs_.occupancy_rejected = &m.counter(prefix + ".occupancy_rejected");
    obs_.match_latency =
        &m.histogram(prefix + ".match_latency", 0.0, 600.0, 24);
  }
}

void Negotiator::start() {
  timer_ = std::make_unique<PeriodicTimer>(sim_, config_.cycle_interval,
                                           [this] { run_cycle(); });
}

void Negotiator::stop() { timer_.reset(); }

void Negotiator::run_cycle() {
  ++stats_.cycles;
  if (pre_cycle_) pre_cycle_();

  auto machines = collector_.machine_ads();
  std::vector<JobId> pending = schedd_.pending();

  if (obs_.rec != nullptr) {
    obs_.cycles->inc();
    obs_.pending_jobs->set(sim_.now(), static_cast<double>(pending.size()));
    for (JobId id : pending) {
      const double age = sim_.now() - schedd_.record(id).submit_time;
      obs_.pending_age_max_s->set_max(age);
      obs_.pending_age_hist->add(age);
    }
  }

  pending = ordered_pending(schedd_, std::move(pending));

  MatchCycle cycle{schedd_,
                   rng_,
                   config_.order,
                   config_.deduct_custom_resources,
                   machines,
                   pending,
                   dispatch_,
                   sim_.now(),
                   obs_.match_latency != nullptr};
  const CycleOutcome outcome = strategy_->run(cycle);

  stats_.matches += outcome.matches;
  stats_.rejected_dispatches += outcome.rejected_dispatches;
  stats_.batch_jobs += outcome.batch_jobs;
  stats_.packed += outcome.packed;
  stats_.occupancy_rejected += outcome.occupancy_rejected;

  if (obs_.rec != nullptr) {
    obs_.matches->inc(outcome.matches);
    obs_.rejected_dispatches->inc(outcome.rejected_dispatches);
    if (strategy_->kind() == MatchStrategyKind::kBatch) {
      obs_.batch_jobs->inc(outcome.batch_jobs);
      obs_.packed->inc(outcome.packed);
      obs_.occupancy_rejected->inc(outcome.occupancy_rejected);
      for (const SimTime latency : outcome.match_latencies) {
        obs_.match_latency->add(latency);
      }
      obs_.rec->event(
          sim_.now(), "negotiation_cycle",
          {{"pending", std::to_string(pending.size())},
           {"matched", std::to_string(outcome.matches)},
           {"rejected", std::to_string(outcome.rejected_dispatches)},
           {"batch", std::to_string(outcome.batch_jobs)},
           {"packed", std::to_string(outcome.packed)},
           {"occ_rejected", std::to_string(outcome.occupancy_rejected)}});
    } else {
      obs_.rec->event(
          sim_.now(), "negotiation_cycle",
          {{"pending", std::to_string(pending.size())},
           {"matched", std::to_string(outcome.matches)},
           {"rejected", std::to_string(outcome.rejected_dispatches)}});
    }
  }
  if (post_cycle_) post_cycle_();
}

}  // namespace phisched::condor

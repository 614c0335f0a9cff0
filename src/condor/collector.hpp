// The collector: registry of machine (node) ClassAds.
//
// Real Condor startds push updates on an interval (UPDATE_INTERVAL), so
// the negotiator sees machine state that can be STALE. Nodes register a
// generator callback; by default the collector materializes fresh ads on
// demand ("the most recent update just arrived"), but an update interval
// can be configured to model staleness: an ad fetched at time t reflects
// the node's state at the last multiple of the interval.
//
// Ads are shared, never copied: a source hands out an immutable ad, and
// every reader (negotiator cycle, add-on) holds the same object. A reader
// that must edit an ad copies it first (see MatchCycle in strategy.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {

/// A machine ad as the collector hands it out: shared and immutable.
using SharedAd = std::shared_ptr<const classad::ClassAd>;

/// Machine ads ordered by node id.
using MachineAds = std::vector<std::pair<NodeId, SharedAd>>;

class Collector {
 public:
  using AdSource = std::function<SharedAd()>;

  /// Always-fresh collector (zero staleness).
  Collector() = default;

  /// Staleness-modelling collector: ads refresh only every
  /// `update_interval` seconds of simulated time (plus once at t=0).
  Collector(Simulator& sim, SimTime update_interval);

  /// Registers (or replaces) the ad source for a node.
  void advertise(NodeId node, AdSource source);

  void withdraw(NodeId node);

  /// Snapshot of all machine ads, ordered by node id. With an update
  /// interval configured these are the ads as of the last update epoch.
  [[nodiscard]] MachineAds machine_ads() const;

  /// Ad for one node (same staleness semantics); throws if unknown.
  [[nodiscard]] SharedAd machine_ad(NodeId node) const;

  [[nodiscard]] std::size_t machine_count() const { return sources_.size(); }

 private:
  struct Entry {
    AdSource source;
    mutable SharedAd cached;  ///< the ad of cached_epoch (stale mode)
    mutable SimTime cached_epoch = -1.0;
  };

  /// Returns the (possibly cached) ad for an entry.
  [[nodiscard]] SharedAd resolve(const Entry& entry) const;

  Simulator* sim_ = nullptr;
  SimTime update_interval_ = 0.0;
  std::map<NodeId, Entry> sources_;
};

}  // namespace phisched::condor

// A compute node: host slots + Xeon Phi devices + node middleware, plus
// the machine ClassAd it advertises to the collector.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "classad/classad.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cosmic/middleware.hpp"
#include "phi/device.hpp"
#include "phi/pcie_switch.hpp"
#include "sim/simulator.hpp"

namespace phisched::cluster {

struct NodeConfig {
  NodeHardware hw{};
  /// Device behaviour knobs; the PhiHardware inside is overridden by
  /// hw.phi so there is a single source of truth.
  phi::DeviceConfig device{};
  /// Per-device capabilities for a heterogeneous fleet (--devices spec).
  /// Empty (the default) builds hw.phi_devices identical cards from
  /// hw.phi; non-empty overrides hw.phi_devices with its size, and each
  /// card takes its entry's geometry, generation, and bandwidths (the
  /// entry's link bandwidth also feeds device.pcie when contention is
  /// on). Behaviour knobs in `device` still apply to every card.
  std::vector<phi::DeviceCapability> devices;
  /// Host-side PCIe switch above the per-card links. Requires
  /// device.pcie.contention when enabled.
  phi::PcieSwitchConfig pcie_switch{};
  cosmic::MiddlewareConfig middleware{};
};

class Node {
 public:
  Node(Simulator& sim, NodeId id, NodeConfig config, Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] int device_count() const { return config_.hw.phi_devices; }
  [[nodiscard]] phi::Device& device(DeviceId d);
  [[nodiscard]] const phi::Device& device(DeviceId d) const;
  [[nodiscard]] cosmic::NodeMiddleware& middleware() { return *middleware_; }
  [[nodiscard]] const cosmic::NodeMiddleware& middleware() const {
    return *middleware_;
  }
  /// The node's host-side PCIe switch, or null when not configured.
  [[nodiscard]] phi::PcieSwitch* pcie_switch() { return pcie_switch_.get(); }
  [[nodiscard]] const phi::PcieSwitch* pcie_switch() const {
    return pcie_switch_.get();
  }

  [[nodiscard]] int total_slots() const { return config_.hw.slots; }
  [[nodiscard]] int free_slots() const { return config_.hw.slots - busy_slots_; }
  void claim_slot();
  void release_slot();

  /// Devices with no resident job — exclusive-allocation capacity.
  [[nodiscard]] int free_exclusive_devices() const;

  /// First device with no resident job, or nullopt.
  [[nodiscard]] std::optional<DeviceId> pick_exclusive_device() const;

  /// The ClassAd the node's startd would push to the collector. Built
  /// only when an advertised input (free slots; per device: idle,
  /// unreserved memory, threads and, with the bandwidth model on,
  /// bandwidth) changed since the previous call; otherwise the same
  /// shared ad is returned. Holders keep the ad they got: a later state
  /// change builds a new ad and never writes this one.
  [[nodiscard]] std::shared_ptr<const classad::ClassAd> shared_machine_ad()
      const;

  /// The current ad by reference; valid until the node's state changes.
  [[nodiscard]] const classad::ClassAd& machine_ad() const {
    return *shared_machine_ad();
  }

  /// Builds the machine ad from scratch, bypassing the memo: the
  /// reference the memoized ad must equal.
  [[nodiscard]] classad::ClassAd build_machine_ad() const;

 private:
  /// Writes the advertised inputs of build_machine_ad() into `key`.
  void ad_key(std::vector<std::int64_t>& key) const;

  Simulator& sim_;
  NodeId id_;
  NodeConfig config_;
  std::vector<std::unique_ptr<phi::Device>> devices_;
  std::unique_ptr<phi::PcieSwitch> pcie_switch_;
  std::unique_ptr<cosmic::NodeMiddleware> middleware_;
  int busy_slots_ = 0;
  // The memoized machine ad and the inputs it was built from.
  mutable std::shared_ptr<const classad::ClassAd> ad_;
  mutable std::vector<std::int64_t> ad_key_;
  mutable std::vector<std::int64_t> scratch_key_;
};

}  // namespace phisched::cluster
